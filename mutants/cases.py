"""The audit's mutants: each is one exact replacement in src/ that some test must catch.

Each entry names the mutant, the file, the exact old text (found exactly
once in that file), the new text, the test ids that must fail with it in
place, and why it is a fault.  run.py runs them; tests/test_mutants.py
checks, without running any, that each old text is still there once.  A
change to a listed function re-anchors its entries here.
"""

GEOMETRY = "src/geoseries/geometry.py"
PLACEMENT = "tests/test_placement.py"
OFF_ITS_PLACE = "tests/test_cli.py::TestVerify::test_polygon_off_its_place_fails_the_audit"

MUTANTS = [
    {
        "name": "containment-dropped",
        "file": GEOMETRY,
        "old": "        if y != bottom and y != top:\n            return j\n",
        "new": "        if False:\n            return j\n",
        "tests": [f"{PLACEMENT}::test_a_vertex_nudged_off_its_line_fails_band_containment",
                  OFF_ITS_PLACE],
        "reason": "a vertex off both band lines passes band containment",
    },
    {
        "name": "containment-bottom-pair-lone-height-dropped",
        "file": GEOMETRY,
        "old": "        if y_pair == bottom and y_lone == top:\n",
        "new": "        if y_pair == bottom:\n",
        "tests": [f"{PLACEMENT}::test_a_triangle_stretched_past_its_band_fails_band_containment"],
        "reason": "a triangle with two vertices on the bottom line may put its third anywhere",
    },
    {
        "name": "containment-top-pair-lone-height-dropped",
        "file": GEOMETRY,
        "old": "        if y_pair == top and y_lone == bottom:\n",
        "new": "        if y_pair == top:\n",
        "tests": [f"{PLACEMENT}::test_a_triangle_stretched_past_its_band_fails_band_containment"],
        "reason": "a triangle with two vertices on the top line may put its third anywhere",
    },
    {
        "name": "shape-dropped",
        "file": GEOMETRY,
        "old": "        if all(map(int.__lt__, xs[:t - 1], xs[1:t])) and all(map(int.__gt__, xs[t:-1], "
               "xs[t + 1:])):\n",
        "new": "        if True:\n",
        "tests": [f"{PLACEMENT}::test_a_self_crossing_polygon_fails_shape"],
        "reason": "a polygon whose vertices do not run along its lines in order passes shape",
    },
    {
        "name": "disjointness-dropped",
        "file": GEOMETRY,
        "old": "            if left[1] > right[0] or left[3] > right[2]:\n",
        "new": "            if False:\n",
        "tests": [OFF_ITS_PLACE],
        "reason": "overlapping polygons pass disjointness",
    },
    {
        "name": "disjointness-bottom-line-dropped",
        "file": GEOMETRY,
        "old": "            if left[1] > right[0] or left[3] > right[2]:\n",
        "new": "            if left[3] > right[2]:\n",
        "tests": [f"{PLACEMENT}::test_a_moved_polygon_fails_unless_it_maps_onto_itself"],
        "reason": "polygons that overlap only along the bottom line pass disjointness",
    },
    {
        "name": "disjointness-top-line-dropped",
        "file": GEOMETRY,
        "old": "            if left[1] > right[0] or left[3] > right[2]:\n",
        "new": "            if left[1] > right[0]:\n",
        "tests": [f"{PLACEMENT}::test_a_moved_polygon_fails_unless_it_maps_onto_itself"],
        "reason": "polygons that overlap only along the top line pass disjointness",
    },
    {
        "name": "left-end-bottom-line-dropped",
        "file": GEOMETRY,
        "old": "        if first[0] < ends[0] or first[2] < ends[2]:\n",
        "new": "        if first[2] < ends[2]:\n",
        "tests": [f"{PLACEMENT}::test_a_base_slid_past_the_outline_fails_band_ends"],
        "reason": "a bottom vertex past the outline's left edge passes band ends",
    },
    {
        "name": "left-end-top-line-dropped",
        "file": GEOMETRY,
        "old": "        if first[0] < ends[0] or first[2] < ends[2]:\n",
        "new": "        if first[0] < ends[0]:\n",
        "tests": [f"{PLACEMENT}::test_an_apex_slid_past_the_outline_fails_band_ends"],
        "reason": "a top vertex past the outline's left edge passes band ends",
    },
    {
        "name": "right-end-bottom-line-dropped",
        "file": GEOMETRY,
        "old": "        if last[1] > ends[1] or last[3] > ends[3]:\n",
        "new": "        if last[3] > ends[3]:\n",
        "tests": [f"{PLACEMENT}::test_a_base_slid_past_the_outline_fails_band_ends"],
        "reason": "a bottom vertex past the outline's right edge passes band ends",
    },
    {
        "name": "right-end-top-line-dropped",
        "file": GEOMETRY,
        "old": "        if last[1] > ends[1] or last[3] > ends[3]:\n",
        "new": "        if last[1] > ends[1]:\n",
        "tests": [f"{PLACEMENT}::test_an_apex_slid_past_the_outline_fails_band_ends"],
        "reason": "a top vertex past the outline's right edge passes band ends",
    },
    {
        "name": "band-rescale-dropped",
        "file": GEOMETRY,
        "old": "    if dc != d:\n        band = [e * (dc // d) for e in band]\n",
        "new": "",
        "tests": [f"{PLACEMENT}::test_a_polygon_off_the_layers_denominator_is_compared_over_the_lcm"],
        "reason": "the band stays over D_k while a polygon over another denominator is put over the lcm",
    },
    {
        "name": "polygon-rescale-dropped",
        "file": GEOMETRY,
        "old": "        if poly.den != dc:\n            f = dc // poly.den\n",
        "new": "        if False:\n            f = dc // poly.den\n",
        "tests": [f"{PLACEMENT}::test_a_polygon_off_the_layers_denominator_is_compared_over_the_lcm"],
        "reason": "a polygon over another denominator is compared with the band over the lcm unscaled",
    },
    {
        "name": "sort-dropped",
        "file": GEOMETRY,
        "old": "        pieces.sort(key=itemgetter(0))\n",
        "new": "",
        "tests": [f"{PLACEMENT}::test_genuine_scenes_pass_as_the_reference_places_them"],
        "reason": "polygons are compared with their neighbours in file order, not along the band",
    },
    {
        "name": "placement-on-every-layer",
        "file": GEOMETRY,
        "old": "        if len(mismatches) == before:  # a layer that fails its counts or areas is not placed\n",
        "new": "        if True:\n",
        "tests": ["tests/test_lattice.py::test_a_tampered_file_fails_as_in_the_reference_audit"],
        "reason": "a layer whose counts or areas fail also gets placement lines",
    },
    {
        "name": "colored-count-of-any-role",
        "file": GEOMETRY,
        "old": "        total += cross\n        if poly.role == ROLE_COLORED:\n            count += 1\n",
        "new": "        total += cross\n        count += 1\n        if poly.role == ROLE_COLORED:\n",
        "tests": ["tests/test_geometry.py::TestAudit::test_layered_audit_values"],
        "reason": "blank polygons are counted as colored",
    },
    {
        "name": "cross-rescaled-by-f",
        "file": GEOMETRY,
        "old": "cross * f * f",
        "new": "cross * f",
        "tests": ["tests/test_lattice.py::test_layer_with_different_denominators_is_audited_exactly"],
        "reason": "a shoelace sum put over the lcm is scaled by lcm / den, not its square",
    },
]
