import argparse
import errno
import hashlib
import io
import json
import os
import random
import shutil
import stat
import subprocess
import sys
import time
import tracemalloc
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest

import geoseries
from geoseries import cli
from geoseries.cli import MAX_POLYGONS, MAX_SCENE_FILE_BYTES, main
from geoseries.construction import StaircaseParams
from geoseries.feasibility import derive_config
from geoseries.geometry import (
    MAX_SCENE_DENOMINATOR_BITS,
    MAX_SCENE_DIGITS,
    build_layered_scene,
    build_staircase_scene,
    scene_to_json,
)
from geoseries.rational import MAX_DENOMINATOR_BITS
from geoseries.render import MAX_CANVAS_WIDTH_PX, RenderOptions, render


def _read_int(text):
    """int(text), read in 1000-digit chunks: under Python's limit on str-to-int digits."""
    value = 0
    for i in range(0, len(text), 1000):
        chunk = text[i : i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def _shoelace(points):
    return sum(
        x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(points, points[1:] + points[:1])
    ) / 2


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFeasible:
    def test_table_has_one_row_per_m(self, capsys):
        code, out, _ = run(capsys, "feasible", "--max-m", "10", "--format", "table")
        assert code == 0
        lines = out.strip().splitlines()
        data = [ln for ln in lines[2:] if ln and not ln.startswith("feasible m")]
        assert len(data) == 9  # m = 2..10
        feasible_rows = [ln for ln in data if ln.rstrip().endswith("yes")]
        assert len(feasible_rows) == 2
        assert "1/3" in feasible_rows[0] and feasible_rows[0].startswith("2")
        assert "4/5" in feasible_rows[1] and feasible_rows[1].startswith("3")
        assert "feasible m: {2, 3}" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "feasible", "--max-m", "5", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert [r["candidate_m"] for r in doc["reports"]] == [2, 3, 4, 5]
        assert [r["feasible"] for r in doc["reports"]] == [True, True, False, False]
        assert doc["reports"][0]["r"] == "1/2"

    def test_rejects_max_m_below_two(self, capsys):
        code, _, err = run(capsys, "feasible", "--max-m", "1")
        assert code == 2
        assert "max-m" in err

    def test_help_states_the_max_m_cap(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["feasible", "--help"])
        assert exc.value.code == 0
        assert "at most 1000000" in capsys.readouterr().out


class TestTable:
    def test_partial_sums_and_limit(self, capsys):
        code, out, _ = run(
            capsys, "table", "--ratio", "1/4", "--first-term", "1/4", "--terms", "5"
        )
        assert code == 0
        rows = out.strip().splitlines()[2:]
        partials = [row.split()[2] for row in rows]
        assert partials == ["1/4", "5/16", "21/64", "85/256", "341/1024"]
        closed = [row.split()[3] for row in rows]
        assert closed == partials
        assert all(row.split()[4] == "1/3" for row in rows)

    def test_closed_column_shows_its_own_value(self, capsys, monkeypatch):
        # the closed column reuses the naive column's text only where the two
        # sums are equal, so a closed form off by one shows as such
        closed = cli.partial_sum_closed
        monkeypatch.setattr(cli, "partial_sum_closed", lambda x, n: closed(x, n) + 1)
        code, out, _ = run(
            capsys, "table", "--ratio", "1/4", "--first-term", "1/4", "--terms", "3"
        )
        assert code == 0
        rows = [row.split() for row in out.splitlines()[2:]]
        assert [row[2] for row in rows] == ["1/4", "5/16", "21/64"]
        assert [row[3] for row in rows] == ["1/2", "9/16", "37/64"]

    def test_rejects_ratio_outside_interval(self, capsys):
        code, _, err = run(capsys, "table", "--ratio", "5/4")
        assert code == 2
        assert "ratio" in err

    def test_malformed_rational_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--ratio", "1/0"])
        assert exc.value.code == 2


    def test_terms_cap_is_checked_before_the_table(self, capsys):
        # 3 terms of a ratio with a 2001-bit denominator predict 6003 bits
        code, out, err = run(capsys, "table", "--ratio", f"1/{2**2000}", "--terms", "3")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --terms 3 is too deep")
        assert "over the cap of 4096 bits (at most 2 here)" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "first_term, part",
        [(f"1/{10**4200}", "13953-bit denominator"), (f"{2**4096}/3", "4097-bit numerator")],
    )
    def test_first_term_cap_is_checked_before_the_table(self, capsys, first_term, part):
        code, out, err = run(
            capsys, "table", "--ratio", "1/2", "--first-term", first_term, "--terms", "1000"
        )
        assert code == 2
        assert out == ""
        assert err == (
            f"error: --first-term has a {part}, over the cap of 4096 bits "
            "for its numerator and its denominator\n"
        )

    def test_largest_table_within_both_caps_passes(self, capsys):
        # 4096-bit first term, and --terms at its cap for --ratio 1/3
        code, out, err = run(
            capsys, "table", "--ratio", "1/3", "--first-term", f"{2**4096 - 3}/{2**4096 - 1}",
            "--terms", "2048",
        )
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 2 + 2048

    def test_help_states_the_terms_cap(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--help"])
        assert exc.value.code == 0
        assert "is at most 4096" in " ".join(capsys.readouterr().out.split())


class TestVerify:
    @pytest.mark.parametrize("s", ["\u0663/\u0665", "3_0/5_0", " 3 / 5 ", "+3/5"])
    def test_s_outside_the_p_q_grammar_is_usage_error(self, capsys, s):
        # int() reads each part of these, so each once audited as s = 3/5
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--construction", "staircase", "--s", s])
        assert exc.value.code == 2
        assert 'argument --s: invalid literal for a "p/q" rational' in capsys.readouterr().err

    def test_staircase_json_reports_colored_fraction(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--construction", "staircase",
            "--s", "1/2", "--layers", "8", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["check"] == "pass"
        assert len(doc["layers"]) == 8
        assert all(layer["colored_fraction"] == "2/3" for layer in doc["layers"])

    def test_layered_table_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--construction", "layered", "--m", "2", "--layers", "6"
        )
        assert code == 0
        assert "check: pass" in out

    def test_infeasible_m_rejected(self, capsys):
        code, _, err = run(
            capsys, "verify", "--construction", "layered", "--m", "4", "--layers", "2"
        )
        assert code == 2
        assert "m=4" in err and "feasible" in err

    def test_infeasible_m_allowed_with_escape_hatch(self, capsys):
        code, out, err = run(
            capsys,
            "verify", "--construction", "layered",
            "--m", "4", "--layers", "2", "--allow-infeasible",
        )
        assert code == 0
        assert "clamped" in err

    @pytest.mark.parametrize("command", ["verify", "render"])
    def test_polygon_cap_is_checked_before_the_build(self, capsys, tmp_path, command):
        # m = 5121 draws 10241 triangles per layer, plus the outline
        out_args = ("--out", str(tmp_path / "wide.svg")) if command == "render" else ()
        code, out, err = run(
            capsys,
            command, "--construction", "layered", "--m", "5121", "--layers", "1",
            "--allow-infeasible", *out_args,
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: --m 5121 with --layers 1 draws 1 x 10241 + 1 = 10242 polygons, "
            "over the cap of 10241\n"
        )
        assert not (tmp_path / "wide.svg").exists()

    def test_polygon_cap_admits_every_feasible_picture(self):
        # the deepest m = 2 and m = 3 pictures the depth cap admits
        for m in (2, 3):
            layers = MAX_DENOMINATOR_BITS // m.bit_length()
            assert layers * (2 * m - 1) + 1 <= MAX_POLYGONS

    def test_largest_clamped_picture_passes(self, capsys):
        code, out, err = run(
            capsys,
            "verify", "--construction", "layered", "--m", "5120", "--layers", "1",
            "--allow-infeasible",
        )
        assert code == 0
        assert "check: pass" in out
        assert err == "warning: m=5120 is infeasible; coloring clamped to 10239 of 10239 " \
            "triangles per layer\n"

    def test_help_states_the_polygon_cap(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["render", "--help"])
        assert exc.value.code == 0
        assert "at most 10241" in " ".join(capsys.readouterr().out.split())

    def test_requires_parameters(self, capsys):
        code, _, err = run(capsys, "verify", "--construction", "layered")
        assert code == 2
        assert "--m" in err

    def test_tampered_scene_fails_with_json_diagnostic(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "render", "--construction", "staircase", "--s", "1/2",
            "--layers", "2", "--out", str(tmp_path / "pic.svg"), "--emit-scene",
        )
        assert code == 0
        scene_path = tmp_path / "pic.json"
        doc = json.loads(scene_path.read_text())
        doc["params"]["s"] = "2/5"
        scene_path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", "--from-scene", str(scene_path))
        assert code == 1
        diagnostic = json.loads(out)
        assert diagnostic["check"] == "fail"
        assert diagnostic["mismatches"]

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"schema":1}', "construction_kind is missing"),
            ("[1,2]", "scene must be an object, got [1, 2]"),
            (
                '{"schema":1,"construction_kind":"staircase","params":{"s":"1"}}',
                'params.s must be a "p/q" string in (0, 1), got \'1\'',
            ),
        ],
    )
    def test_malformed_scene_is_usage_error(self, capsys, tmp_path, text, message):
        scene_path = tmp_path / "bad.json"
        scene_path.write_text(text)
        code, out, err = run(capsys, "verify", "--from-scene", str(scene_path))
        assert code == 2
        assert out == ""
        assert err == f"error: invalid scene file {scene_path}: {message}\n"

    def test_bad_coordinate_names_its_path(self, capsys, tmp_path):
        run(
            capsys,
            "render", "--construction", "staircase", "--s", "1/2",
            "--layers", "2", "--out", str(tmp_path / "pic.svg"), "--emit-scene",
        )
        scene_path = tmp_path / "pic.json"
        doc = json.loads(scene_path.read_text())
        doc["polygons"][3]["vertices"][1] = ["1/2", "1/0"]
        scene_path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify", "--from-scene", str(scene_path))
        assert code == 2
        assert err.startswith(f"error: invalid scene file {scene_path}: polygons[3].vertices[1]: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["verify", "render"])
    def test_layers_cap_is_checked_before_the_build(self, capsys, tmp_path, command):
        # 3 layers of an s with a 2001-bit denominator predict 6003 bits
        out_args = ("--out", str(tmp_path / "deep.svg")) if command == "render" else ()
        code, out, err = run(
            capsys,
            command, "--construction", "staircase", "--s", f"1/{2**2000}", "--layers", "3",
            *out_args,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: --layers 3 is too deep")
        assert "over the cap of 4096 bits (at most 2 here)" in err
        assert not (tmp_path / "deep.svg").exists()

    def test_layers_rendered_cap_is_checked_before_the_audit(self, capsys, tmp_path):
        run(
            capsys,
            "render", "--construction", "staircase", "--s", "1/2",
            "--layers", "2", "--out", str(tmp_path / "pic.svg"), "--emit-scene",
        )
        scene_path = tmp_path / "pic.json"
        doc = json.loads(scene_path.read_text())
        doc["params"]["s"] = f"1/{2**2000}"
        doc["layers_rendered"] = 3
        scene_path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", "--from-scene", str(scene_path))
        assert code == 2
        assert out == ""
        assert err.startswith(
            f"error: invalid scene file {scene_path}: layers_rendered 3 is too deep"
        )
        assert "over the cap of 4096 bits" in err

    def test_bad_layer_index_names_its_path(self, capsys, tmp_path):
        run(
            capsys,
            "render", "--construction", "staircase", "--s", "1/2",
            "--layers", "2", "--out", str(tmp_path / "pic.svg"), "--emit-scene",
        )
        scene_path = tmp_path / "pic.json"
        doc = json.loads(scene_path.read_text())
        doc["polygons"][1]["layer_index"] = None
        scene_path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", "--from-scene", str(scene_path))
        assert code == 2
        assert out == ""
        assert err == (
            f"error: invalid scene file {scene_path}: polygons[1].layer_index must be "
            "an integer in [1, 2] for a colored polygon, got None\n"
        )

    def test_help_states_the_layers_cap(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        assert "of s is at most 4096" in " ".join(capsys.readouterr().out.split())

    def test_scene_missing_a_layer_is_an_audit_mismatch(self, capsys, tmp_path):
        run(
            capsys,
            "render", "--construction", "staircase", "--s", "1/2",
            "--layers", "2", "--out", str(tmp_path / "pic.svg"), "--emit-scene",
        )
        scene_path = tmp_path / "pic.json"
        doc = json.loads(scene_path.read_text())
        doc["polygons"] = [p for p in doc["polygons"] if p["layer_index"] != 2]
        scene_path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", "--from-scene", str(scene_path))
        assert code == 1
        diagnostic = json.loads(out)
        assert diagnostic["layers"][1]["polygons"] == 0
        assert diagnostic["layers"][1]["colored_fraction"] == "0"
        assert diagnostic["mismatches"][0].startswith("layer 2: polygon counts (0, 0 colored)")

    def test_lying_colored_count_fails_the_audit(self, capsys, tmp_path):
        # the file claims one colored triangle per layer and draws one: r = 1/3 says 4
        run(
            capsys,
            "render", "--construction", "layered", "--m", "3",
            "--layers", "2", "--out", str(tmp_path / "pic.svg"), "--emit-scene",
        )
        scene_path = tmp_path / "pic.json"
        doc = json.loads(scene_path.read_text())
        doc["params"]["colored_per_layer"] = "1"
        seen = set()
        for poly in doc["polygons"]:
            if poly["role"] == "colored":
                if poly["layer_index"] in seen:
                    poly["role"] = "blank"
                seen.add(poly["layer_index"])
        scene_path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", "--from-scene", str(scene_path))
        assert code == 1
        diagnostic = json.loads(out)
        assert diagnostic["check"] == "fail"
        assert diagnostic["mismatches"][:2] == [
            "params.colored_per_layer: echoed 1 != 4 derived from r = 1/3",
            "layer 1: polygon counts (5, 1 colored) != expected (5, 4 colored)",
        ]
        assert [layer["colored"] for layer in diagnostic["layers"]] == [1, 1]

    def test_layered_ratio_not_one_over_m_is_usage_error(self, capsys, tmp_path):
        run(
            capsys,
            "render", "--construction", "layered", "--m", "3",
            "--layers", "2", "--out", str(tmp_path / "pic.svg"), "--emit-scene",
        )
        scene_path = tmp_path / "pic.json"
        doc = json.loads(scene_path.read_text())
        doc["params"]["r"] = "2/3"
        scene_path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", "--from-scene", str(scene_path))
        assert code == 2
        assert out == ""
        assert err == (
            f"error: invalid scene file {scene_path}: "
            "params.r must be 1/m for a layered scene, got '2/3'\n"
        )

    def test_denominator_cap_is_checked_before_the_audit(self, capsys, tmp_path):
        # 400 triangles, each over its own 4000-bit denominator (2.0 MB); without
        # the cap the audit's sums grow with every triangle
        rnd = random.Random(7)
        doc = scene_to_json(build_layered_scene(derive_config(3), 1))
        for _ in range(400):
            q = rnd.getrandbits(4000) | 2**3999 | 1
            p = rnd.getrandbits(3990)
            doc["polygons"].append({
                "vertices": [["0", "0"], [f"{p}/{q}", "0"], ["0", f"{p}/{q}"]],
                "role": "colored", "layer_index": 1, "label": None,
            })
        scene_path = tmp_path / "wide.json"
        scene_path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--from-scene", str(scene_path))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err.startswith(f"error: invalid scene file {scene_path}: polygons[")
        assert err.endswith(f" bits, over the cap of {MAX_SCENE_DENOMINATOR_BITS}\n")

    @pytest.mark.parametrize(
        "scene",
        [
            lambda: build_staircase_scene(StaircaseParams(Fraction(1, 2**4095 + 1)), 1),
            lambda: build_layered_scene(derive_config(3), 2048),
            lambda: build_layered_scene(derive_config(5), 1137),
        ],
        ids=["staircase-4096-bit-q-L1", "layered-m3-L2048", "clamped-m5-L1137"],
    )
    def test_deepest_scene_files_pass_the_denominator_cap(self, capsys, tmp_path, scene):
        scene_path = tmp_path / "deep.json"
        scene_path.write_text(json.dumps(scene_to_json(scene())))
        code, out, err = run(capsys, "verify", "--from-scene", str(scene_path))
        assert (code, err) == (0, "")
        assert out.endswith("check: pass\n")

    def test_scene_file_at_the_count_caps_is_read(self, capsys, tmp_path):
        # layered m = 3 at its depth cap holds MAX_POLYGONS polygons of 3
        # vertices each; its labels are padded to MAX_POLYGONS
        doc = scene_to_json(build_layered_scene(derive_config(3), 2048))
        assert len(doc["polygons"]) == MAX_POLYGONS
        assert sum(len(entry["vertices"]) for entry in doc["polygons"]) == 3 * MAX_POLYGONS
        doc["labels"] += doc["labels"][:1] * (MAX_POLYGONS - len(doc["labels"]))
        scene_path = tmp_path / "full.json"
        scene_path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", "--from-scene", str(scene_path))
        assert (code, err) == (0, "")
        assert out.endswith("check: pass\n")

    @pytest.mark.parametrize(
        "field, message",
        [
            ("polygons", f"polygons holds {MAX_POLYGONS + 1} entries, over the cap of {MAX_POLYGONS}"),
            (
                "vertices",
                f"polygons hold {3 * MAX_POLYGONS + 1} vertices in total, over the cap of "
                f"{3 * MAX_POLYGONS} (3 x {MAX_POLYGONS})",
            ),
            ("labels", f"labels holds {MAX_POLYGONS + 1} entries, over the cap of {MAX_POLYGONS}"),
        ],
        ids=["polygons", "vertices", "labels"],
    )
    def test_scene_file_over_a_count_cap_is_refused_before_any_polygon(
        self, capsys, tmp_path, monkeypatch, field, message
    ):
        doc = scene_to_json(build_layered_scene(derive_config(3), 1))  # 6 polygons, 18 vertices
        triangle = doc["polygons"][1]
        if field == "polygons":
            doc["polygons"] += [triangle] * (MAX_POLYGONS + 1 - 6)
        elif field == "vertices":
            extra = [triangle["vertices"][0]] * (3 * MAX_POLYGONS + 1 - 18)
            doc["polygons"][1] = {**triangle, "vertices": triangle["vertices"] + extra}
        else:
            doc["labels"] = doc["labels"][:1] * (MAX_POLYGONS + 1)
        scene_path = tmp_path / "huge.json"
        scene_path.write_text(json.dumps(doc))

        def refuse(*args):
            raise AssertionError("a polygon was made")

        monkeypatch.setattr("geoseries.geometry.Polygon.over", refuse)
        code, out, err = run(capsys, "verify", "--from-scene", str(scene_path))
        assert (code, out) == (2, "")
        assert err == f"error: invalid scene file {scene_path}: {message}\n"

    def test_scene_file_over_the_byte_cap_is_refused_before_reading(
        self, capsys, tmp_path, monkeypatch
    ):
        scene_path = tmp_path / "huge.json"
        scene_path.touch()
        os.truncate(scene_path, MAX_SCENE_FILE_BYTES + 1)  # sparse: no data is written

        def refuse(*args, **kwargs):
            raise AssertionError("the file was parsed")

        monkeypatch.setattr("json.loads", refuse)
        code, out, err = run(capsys, "verify", "--from-scene", str(scene_path))
        assert (code, out) == (2, "")
        assert err == (
            f"error: scene file {scene_path} holds {MAX_SCENE_FILE_BYTES + 1} bytes, "
            f"over the cap of {MAX_SCENE_FILE_BYTES}\n"
        )

    @pytest.mark.skipif(not Path("/dev/zero").exists(), reason="needs /dev/zero")
    def test_endless_scene_stream_is_refused_past_the_byte_cap(self, capsys, monkeypatch):
        # a device or a pipe has no size to stat: its bytes are counted as read
        monkeypatch.setattr(cli, "MAX_SCENE_FILE_BYTES", 1000)

        def refuse(*args, **kwargs):
            raise AssertionError("the stream was parsed")

        monkeypatch.setattr("json.loads", refuse)
        code, out, err = run(capsys, "verify", "--from-scene", "/dev/zero")
        assert (code, out) == (2, "")
        assert err == "error: scene file /dev/zero holds more than 1000 bytes, the cap\n"

    def test_scene_file_is_read_in_about_its_own_size(self, capsys, tmp_path):
        # a read of n bytes reserves n up front: a read of up to the byte cap
        # peaks at 113 MB, over 140x the size of this 0.8 MB file
        out_path = tmp_path / "deep.svg"
        render_args = ("--construction", "layered", "--m", "3", "--layers", "200")
        assert run(capsys, "render", *render_args, "--out", str(out_path), "--emit-scene")[0] == 0
        scene_path = out_path.with_suffix(".json")
        size = scene_path.stat().st_size
        tracemalloc.start()
        try:
            code = main(["verify", "--from-scene", str(scene_path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert size > 700_000
        assert peak < 20 * size, f"peak {peak} B for a {size} B file"

    def test_scene_file_bytes_and_text_are_dropped_as_it_is_parsed(self, capsys, tmp_path):
        # the file's bytes, its text and the parsed document held together
        # peaked at 3.24x the size of this 14.85 MB file
        out_path = tmp_path / "deep.svg"
        render_args = ("--construction", "layered", "--m", "3", "--layers", "1024")
        assert run(capsys, "render", *render_args, "--out", str(out_path), "--emit-scene")[0] == 0
        scene_path = out_path.with_suffix(".json")
        size = scene_path.stat().st_size
        tracemalloc.start()
        try:
            code = main(["verify", "--from-scene", str(scene_path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert size > 14_000_000
        assert peak < 2.6 * size, f"peak {peak} B for a {size} B file"

    def test_empty_scene_path_is_usage_error(self, capsys, monkeypatch):
        # Path("") is the current directory, which open() refuses only as a directory
        monkeypatch.setattr(cli, "scene_from_json", lambda doc: pytest.fail("a scene was read"))
        assert run(capsys, "verify", "--from-scene", "") == (
            2, "", "error: --from-scene must name a file, got ''\n"
        )

    @pytest.mark.parametrize(
        "data, reason",
        [
            (b"[" * 1200, "maximum recursion depth exceeded"),
            ('{"schema": 1, "construction_kind": "caf\xe9"}'.encode("latin-1"), "'utf-8' codec"),
            (b'{"schema": ' + b"9" * 5000 + b"}", f"Exceeds the limit ({MAX_SCENE_DIGITS} digits)"),
        ],
        ids=["nested-arrays", "not-utf-8", "long-integer"],
    )
    def test_unreadable_scene_file_is_usage_error(self, capsys, tmp_path, data, reason):
        scene_path = tmp_path / "bad.json"
        scene_path.write_bytes(data)
        code, out, err = run(capsys, "verify", "--from-scene", str(scene_path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read scene file {scene_path}: {reason}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("where", ["label", "vertex", "schema", "param"])
    def test_a_number_of_a_million_digits_is_refused_within_a_second(self, tmp_path, where):
        # with Python's limit on a number's digits lifted, int() of 10^6 digits
        # takes seconds, as its time is quadratic; the reader holds its own limit
        doc = scene_to_json(build_layered_scene(derive_config(3), 3))
        big = "1" * 10**6
        if where == "label":
            doc["labels"][0]["x"] = big
        elif where == "vertex":
            doc["polygons"][2]["vertices"][1][0] = big
        elif where == "param":
            doc["params"]["n"] = big
        text = json.dumps(doc)
        if where == "schema":
            text = text.replace('"schema": 1', '"schema": ' + big, 1)
        path = tmp_path / "big.json"
        path.write_text(text)
        src = str(Path(geoseries.__file__).resolve().parent.parent)
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "geoseries.cli", "verify", "--from-scene", str(path)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src, "PYTHONINTMAXSTRDIGITS": "0"},
        )
        assert time.perf_counter() - start < 1
        assert (done.returncode, done.stdout, done.stderr.count("\n")) == (2, "", 1)
        cap = f"Exceeds the limit ({MAX_SCENE_DIGITS} digits) for integer string conversion"
        assert done.stderr.startswith({
            "label": f"error: invalid scene file {path}: labels[0]: {cap}",
            "vertex": f"error: invalid scene file {path}: polygons[2].vertices[1]: {cap}",
            "schema": f"error: cannot read scene file {path}: {cap}",
            "param": f"error: invalid scene file {path}: params.n must be an integer >= 1",
        }[where])

    @pytest.mark.parametrize("extra", [0, 1])
    def test_the_digit_cap_is_the_readers_not_the_interpreters(self, capsys, tmp_path, extra):
        # a label's x of MAX_SCENE_DIGITS digits, more than Python's default limit
        # of 4300, is read, and one of a digit more is refused; either way
        # Python's limit is as it was once verify returns
        doc = scene_to_json(build_layered_scene(derive_config(3), 3))
        doc["labels"][0]["x"] = "1" * (MAX_SCENE_DIGITS + extra)
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "verify", "--from-scene", str(path))
        assert sys.get_int_max_str_digits() == limit
        if extra:
            assert (code, out) == (2, "")
            assert err.startswith(f"error: invalid scene file {path}: labels[0]: Exceeds the "
                                  f"limit ({MAX_SCENE_DIGITS} digits)")
        else:
            assert (code, err) == (0, "")
            assert out.endswith("check: pass\n")

    def test_the_depth_cap_scene_file_reads_and_passes(self, capsys, tmp_path):
        out = tmp_path / "cap.svg"
        args = ("--construction", "layered", "--m", "3", "--layers", "2048")
        assert main(["render", *args, "--out", str(out), "--emit-scene"]) == 0
        capsys.readouterr()
        code, table, err = run(capsys, "verify", "--from-scene", str(out.with_suffix(".json")))
        assert (code, err) == (0, "")
        assert table.endswith("check: pass\n")

    def test_verify_needs_a_construction_or_a_scene_file(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--m", "3"])
        assert exc.value.code == 2
        assert "one of the arguments --construction --from-scene is required" in (
            capsys.readouterr().err
        )

    def test_from_scene_refuses_construction(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--from-scene", "pic.json", "--construction", "layered"])
        assert exc.value.code == 2
        assert "not allowed with argument --from-scene" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [("--m", "9"), ("--s", "1/2"), ("--layers", "4"), ("--allow-infeasible",),
         ("--m", "9", "--layers", "2")],
    )
    def test_from_scene_refuses_scene_arguments(self, capsys, tmp_path, monkeypatch, flags):
        scene_path = tmp_path / "pic.json"
        scene_path.write_text(json.dumps(scene_to_json(build_layered_scene(derive_config(3), 2))))
        read = []
        monkeypatch.setattr(cli, "scene_from_json", read.append)
        code, out, err = run(capsys, "verify", "--from-scene", str(scene_path), *flags)
        given = ", ".join(flag for flag in flags if flag.startswith("--"))
        assert (code, out) == (2, "")
        assert err == f"error: --from-scene takes its scene from the file, not from {given}\n"
        assert read == []

    def test_scene_params_are_echoed_as_json_text(self, capsys, tmp_path):
        # a non-string param was once echoed as its Python repr: "[1, True, None]", "False"
        scene_path = self._m3_scene_file(capsys, tmp_path)
        doc = json.loads(scene_path.read_text())
        want = {**doc["params"], "n": "5", "note": "[1, true, null]", "flag": "false",
                "none": "null"}
        doc["params"].update({"n": 5, "note": [1, True, None], "flag": False, "none": None})
        scene_path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", "--from-scene", str(scene_path), "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["params"] == want


    def _m3_scene_file(self, capsys, tmp_path):
        run(
            capsys,
            "render", "--construction", "layered", "--m", "3",
            "--layers", "3", "--out", str(tmp_path / "pic.svg"), "--emit-scene",
        )
        return tmp_path / "pic.json"

    @pytest.mark.parametrize(
        "tamper, got",
        [
            (
                lambda polygons: [
                    {**p, "vertices": [[f"{5 * int(c)}" for c in v] for v in p["vertices"]]}
                    if p["role"] == "outline" else p
                    for p in polygons
                ],
                "((-5, 0), (5, 0), (0, 5))",
            ),
            (lambda polygons: [p for p in polygons if p["role"] != "outline"], "0 polygons"),
            (lambda polygons: polygons + polygons[:1], "2 polygons"),
        ],
        ids=["scaled-x5", "deleted", "doubled"],
    )
    def test_wrong_outline_fails_the_audit(self, capsys, tmp_path, tamper, got):
        scene_path = self._m3_scene_file(capsys, tmp_path)
        doc = json.loads(scene_path.read_text())
        doc["polygons"] = tamper(doc["polygons"])
        scene_path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", "--from-scene", str(scene_path))
        assert code == 1
        diagnostic = json.loads(out)
        assert diagnostic["mismatches"] == [
            f"outline: {got} != one polygon with the master triangle's vertices "
            "(C, B, A) = ((-1, 0), (1, 0), (0, 1)), in this cyclic order"
        ]
        assert all(layer["ok"] for layer in diagnostic["layers"])

    @pytest.mark.parametrize("turn", [1, 2])
    def test_rotated_outline_passes(self, capsys, tmp_path, turn):
        scene_path = self._m3_scene_file(capsys, tmp_path)
        doc = json.loads(scene_path.read_text())
        vertices = doc["polygons"][0]["vertices"]
        doc["polygons"][0]["vertices"] = vertices[turn:] + vertices[:turn]
        doc["polygons"][0]["layer_index"] = 7  # the outline check reads vertices only
        scene_path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", "--from-scene", str(scene_path))
        assert code == 0
        assert out.endswith("check: pass\n")

    def test_huge_tampered_areas_exit_1_with_the_json_diagnostic(self, capsys, tmp_path):
        # each triangle's vertex j moved by (A_j, B_j)/q over its own odd 4000-bit q:
        # the layer sums lie over about 2 x 8000 bits, past Python's 4300-digit
        # limit on int-to-str conversion
        rnd = random.Random(11)
        doc = scene_to_json(build_staircase_scene(StaircaseParams(Fraction(1, 2)), 1))
        for poly in doc["polygons"][1:]:
            q = rnd.getrandbits(4000) | 2**3999 | 1
            poly["vertices"] = [
                [str(Fraction(x) + Fraction(a, q)), str(Fraction(y) + Fraction(b, q))]
                for (x, y), a, b in zip(poly["vertices"], (1, 2, 4), (1, 5, 2))
            ]
        scene_path = tmp_path / "huge.json"
        scene_path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", "--from-scene", str(scene_path))
        assert (code, err) == (1, "")
        diagnostic = json.loads(out)
        assert diagnostic["check"] == "fail"
        layer_area = diagnostic["layers"][0]["layer_area"]
        assert len(layer_area) > 4300
        num, den = (_read_int(part) for part in layer_area.split("/"))
        assert Fraction(num, den) == sum(
            _shoelace([(Fraction(x), Fraction(y)) for x, y in poly["vertices"]])
            for poly in doc["polygons"][1:]
        )

    @pytest.mark.parametrize(
        "scene, tamper, mismatch",
        [
            (
                ("layered", "--m", "3"),
                lambda polygons: polygons[3].update(vertices=[
                    [str(Fraction(x) + 10), str(Fraction(y) - 3)]
                    for x, y in polygons[3]["vertices"]
                ]),
                "polygons[3] vertex 0 at y = -3 is off the band's lines y = 0 and y = 1/3 "
                "(band containment)",
            ),
            (
                ("layered", "--m", "3"),
                lambda polygons: polygons[3].update(polygons[2]),
                "polygons[3] overlaps polygons[2]: it does not lie right of it on both band "
                "lines (disjointness)",
            ),
            (
                ("layered", "--m", "3"),
                lambda polygons: polygons[1].update(vertices=[
                    [str(-Fraction(x)), y] for x, y in reversed(polygons[1]["vertices"])
                ]),
                "polygons[2] overlaps polygons[1]: it does not lie right of it on both band "
                "lines (disjointness)",
            ),
            (
                ("staircase", "--s", "3/5"),
                lambda polygons: polygons[2].update(vertices=[
                    ["7/3", "0"] if v == ["3/2", "0"] else v for v in polygons[2]["vertices"]
                ]),
                "polygons[2] overlaps polygons[1]: it does not lie right of it on both band "
                "lines (disjointness)",
            ),
            (
                ("layered", "--m", "3"),
                lambda polygons: polygons.reverse() or polygons[12].update(vertices=[
                    [str(Fraction(x) + 10), str(Fraction(y) - 3)]
                    for x, y in polygons[12]["vertices"]
                ]),
                "polygons[12] vertex 0 at y = -3 is off the band's lines y = 0 and y = 1/3 "
                "(band containment)",
            ),
        ],
        ids=["translated", "duplicated", "mirrored", "slid-vertex", "translated-in-reverse"],
    )
    def test_polygon_off_its_place_fails_the_audit(self, capsys, tmp_path, scene, tamper,
                                                   mismatch):
        # each keeps every layer's counts and area sums: a translated triangle,
        # a copy of its neighbour, a layer-1 triangle mirrored across x = 0
        # onto its partner, and the staircase blank piece's base vertex slid
        # along the base; each fails one check of layer 1's placement.  Last,
        # the first translated in a file listing its polygons in reverse, the
        # outline last: it is named by its index in that file
        run(
            capsys,
            "render", "--construction", *scene,
            "--layers", "3", "--out", str(tmp_path / "pic.svg"), "--emit-scene",
        )
        scene_path = tmp_path / "pic.json"
        doc = json.loads(scene_path.read_text())
        before = json.dumps(doc)
        tamper(doc["polygons"])
        assert json.dumps(doc) != before
        scene_path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", "--from-scene", str(scene_path))
        assert (code, err) == (1, "")
        diagnostic = json.loads(out)
        assert diagnostic["mismatches"] == [f"layer 1: {mismatch}"]
        assert [layer["ok"] for layer in diagnostic["layers"]] == [False, True, True]


RENDER_SCENE = ("--construction", "layered", "--m", "3", "--layers", "3")


class TestRender:
    @pytest.mark.parametrize(
        "flags, opts",
        [
            (("--width", "321"), RenderOptions(canvas_width_px=321)),
            (("--fill", "red"), RenderOptions(color_fill="red")),
            (("--stroke", "#123456"), RenderOptions(stroke_color="#123456")),
            (("--decimal-places", "3"), RenderOptions(decimal_places=3)),
            (("--no-labels",), RenderOptions(show_labels=False)),
            (("--no-layer-annotations",), RenderOptions(show_layer_annotations=False)),
            (("--no-equilateral",), RenderOptions(equilateral_look=False)),
            (
                ("--width", str(MAX_CANVAS_WIDTH_PX)),
                RenderOptions(canvas_width_px=MAX_CANVAS_WIDTH_PX),
            ),
        ],
    )
    def test_flag_reaches_the_svg(self, capsys, tmp_path, flags, opts):
        out_path = tmp_path / "pic.svg"
        code, _, _ = run(capsys, "render", *RENDER_SCENE, "--out", str(out_path), *flags)
        assert code == 0
        scene = build_layered_scene(derive_config(3), 3)
        svg = render(scene, opts)
        assert out_path.read_bytes() == svg.encode("utf-8")
        assert svg != render(scene, RenderOptions())

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--width", "0"), "error: canvas width must be positive, got 0\n"),
            (("--decimal-places", "13"), "error: decimal_places must lie in [1, 12], got 13\n"),
            (
                ("--width", str(MAX_CANVAS_WIDTH_PX + 1)),
                f"error: canvas width must be at most {MAX_CANVAS_WIDTH_PX}, "
                f"got {MAX_CANVAS_WIDTH_PX + 1}\n",
            ),
        ],
    )
    def test_bad_render_option_is_usage_error(self, capsys, tmp_path, flags, message):
        out_path = tmp_path / "pic.svg"
        code, out, err = run(capsys, "render", *RENDER_SCENE, "--out", str(out_path), *flags)
        assert (code, out, err) == (2, "", message)
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "flags", [("--width", "0"), ("--decimal-places", "13"), ("--width", "1" + "0" * 4295)]
    )
    def test_bad_render_option_is_checked_before_the_build(
        self, capsys, tmp_path, monkeypatch, flags
    ):
        built = []
        monkeypatch.setattr(cli, "build_layered_scene", lambda *args: built.append(args))
        out_path = tmp_path / "pic.svg"
        code, _, err = run(capsys, "render", *RENDER_SCENE, "--out", str(out_path), *flags)
        assert code == 2
        assert err.startswith("error: ")
        assert built == []

    @pytest.mark.parametrize("flag", ["--fill", "--stroke"])
    @pytest.mark.parametrize(
        "bad", ["\x01", "x\x1fy", "\ufffe"], ids=["U+0001", "U+001F", "U+FFFE"]
    )
    def test_color_with_a_character_xml_forbids_is_usage_error(self, capsys, tmp_path, flag, bad):
        out_path = tmp_path / "pic.svg"
        code, out, err = run(capsys, "render", *RENDER_SCENE, "--out", str(out_path), flag, bad)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {flag[2:]} color must not contain U+")
        assert err.endswith(", a character XML 1.0 does not allow\n")
        assert err.count("\n") == 1
        assert not out_path.exists()

    def test_default_render_is_well_formed_xml(self, capsys, tmp_path):
        out_path = tmp_path / "pic.svg"
        code, _, _ = run(capsys, "render", *RENDER_SCENE, "--out", str(out_path))
        assert code == 0
        root = ET.parse(out_path).getroot()
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        assert len(root.findall("{http://www.w3.org/2000/svg}polygon")) == 1 + 3 * 5

    def test_hostile_colors_are_escaped(self, capsys, tmp_path):
        out_path = tmp_path / "pic.svg"
        code, _, _ = run(
            capsys, "render", *RENDER_SCENE, "--out", str(out_path),
            "--fill", 'a"b<', "--stroke", "x&'y>",
        )
        assert code == 0
        polygons = ET.parse(out_path).getroot().findall("{http://www.w3.org/2000/svg}polygon")
        assert {p.get("stroke") for p in polygons} == {"x&'y>"}
        assert {p.get("fill") for p in polygons} == {"none", "#ffffff", 'a"b<'}

    def test_writes_svg_and_scene(self, capsys, tmp_path):
        out_path = tmp_path / "mabry.svg"
        code, out, _ = run(
            capsys,
            "render", "--construction", "layered", "--m", "2",
            "--layers", "4", "--out", str(out_path), "--emit-scene",
        )
        assert code == 0
        assert out_path.exists()
        assert out_path.read_text().startswith("<?xml")
        assert (tmp_path / "mabry.json").exists()

    def test_scene_round_trip_reproduces_audit(self, capsys, tmp_path):
        out_path = tmp_path / "stairs.svg"
        run(
            capsys,
            "render", "--construction", "staircase", "--s", "3/5",
            "--layers", "5", "--out", str(out_path), "--emit-scene",
        )
        code, from_scene, _ = run(
            capsys,
            "verify", "--from-scene", str(tmp_path / "stairs.json"), "--format", "json",
        )
        assert code == 0
        code, direct, _ = run(
            capsys,
            "verify", "--construction", "staircase",
            "--s", "3/5", "--layers", "5", "--format", "json",
        )
        assert code == 0
        assert json.loads(from_scene) == json.loads(direct)

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        out_path = tmp_path / "nodir" / "x.svg"
        code, out, err = run(
            capsys,
            "render", "--construction", "layered", "--m", "2",
            "--layers", "2", "--out", str(out_path),
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {out_path}: ")
        assert err.count("\n") == 1

    def test_unwritable_scene_is_usage_error(self, capsys, monkeypatch, tmp_path):
        # refused before the build, as --out is: unchecked, the SVG is written
        # and reported before the scene's write fails
        (tmp_path / "pic.json").mkdir()  # the scene's path is taken by a directory
        monkeypatch.setattr(cli, "build_layered_scene", lambda *args: pytest.fail("a scene was built"))
        code, out, err = run(
            capsys,
            "render", "--construction", "layered", "--m", "2", "--layers", "2",
            "--out", str(tmp_path / "pic.svg"), "--emit-scene",
        )
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {tmp_path / 'pic.json'}: {os.strerror(errno.EISDIR)}\n"
        assert [path.name for path in tmp_path.iterdir()] == ["pic.json"]
        assert list((tmp_path / "pic.json").iterdir()) == []

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_scene_write_that_fails_midway_is_usage_error(self, capsys, tmp_path):
        # every write to /dev/full fails with ENOSPC, after the file opened fine
        (tmp_path / "pic.json").symlink_to("/dev/full")
        code, out, err = run(
            capsys,
            "render", "--construction", "layered", "--m", "3", "--layers", "40",
            "--out", str(tmp_path / "pic.svg"), "--emit-scene",
        )
        assert code == 2
        assert out == f"wrote {tmp_path / 'pic.svg'}\n"
        assert err == f"error: cannot write {tmp_path / 'pic.json'}: No space left on device\n"

    @pytest.mark.parametrize("first, then", [(6, 2), (2, 6)], ids=["shorter", "longer"])
    def test_a_rewrite_leaves_exactly_the_new_bytes(self, capsys, tmp_path, first, then):
        def render_into(folder, layers):
            argv = ("--construction", "layered", "--m", "3", "--layers", str(layers))
            out = folder / "pic.svg"
            assert run(capsys, "render", *argv, "--out", str(out), "--emit-scene")[0] == 0
            return out.read_bytes(), out.with_suffix(".json").read_bytes()

        (tmp_path / "fresh").mkdir()
        want = render_into(tmp_path / "fresh", then)
        old = render_into(tmp_path, first)
        assert all(len(a) != len(b) for a, b in zip(old, want))
        paths = tmp_path / "pic.svg", tmp_path / "pic.json"
        for path in paths:
            path.chmod(0o640)
            os.link(path, path.with_name("link" + path.suffix))
        inodes = [path.stat().st_ino for path in paths]
        assert render_into(tmp_path, then) == want
        assert [path.stat().st_ino for path in paths] == inodes
        assert [stat.S_IMODE(path.stat().st_mode) for path in paths] == [0o640, 0o640]
        assert (
            (tmp_path / "link.svg").read_bytes(), (tmp_path / "link.json").read_bytes()
        ) == want

    def test_a_symlinked_out_rewrites_its_target(self, capsys, tmp_path):
        target, link = tmp_path / "target.svg", tmp_path / "pic.svg"
        target.write_text("x" * 100_000)
        link.symlink_to(target.name)
        assert run(capsys, "render", *RENDER_SCENE, "--out", str(link))[0] == 0
        assert link.is_symlink()
        assert target.read_bytes() == render(
            build_layered_scene(derive_config(3), 3), RenderOptions()
        ).encode("utf-8")

    def test_no_output_file_is_opened_with_o_trunc(self, capsys, monkeypatch, tmp_path):
        # on ext4, a file holding data that is cut to zero, by O_TRUNC or by an
        # ftruncate before the buffer is flushed, starts its old data's writeback
        # as it is closed, which made each rewrite about 7x slower
        opened, cuts = [], []
        real_open, real_ftruncate = os.open, os.ftruncate

        def spy_open(path, flags, *args, **kwargs):
            opened.append((os.fspath(path), flags))
            return real_open(path, flags, *args, **kwargs)

        def spy_ftruncate(fd, length):
            cuts.append(length)
            return real_ftruncate(fd, length)

        monkeypatch.setattr(os, "open", spy_open)
        monkeypatch.setattr(os, "ftruncate", spy_ftruncate)
        out, scene_path = tmp_path / "pic.svg", tmp_path / "pic.json"
        for _ in range(2):  # the second run writes over both files
            assert run(capsys, "render", *RENDER_SCENE, "--out", str(out), "--emit-scene")[0] == 0
        assert [path for path, _ in opened] == [str(out), str(scene_path)] * 2
        assert not [flags for _, flags in opened if flags & os.O_TRUNC]
        assert cuts == [out.stat().st_size, scene_path.stat().st_size] * 2
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask

    @pytest.mark.parametrize("first_chunk", ["{\n", "x" * 100_000], ids=["buffered", "written"])
    @pytest.mark.parametrize("failure", [OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
                                         KeyboardInterrupt()], ids=["ENOSPC", "interrupt"])
    def test_a_write_that_fails_midway_leaves_no_old_byte(
        self, capsys, monkeypatch, tmp_path, first_chunk, failure
    ):
        def chunks(scene):
            yield first_chunk
            raise failure

        scene_path = tmp_path / "pic.json"
        scene_path.write_text("o" * 300_000)
        monkeypatch.setattr(cli, "scene_json_chunks", chunks)
        argv = ("render", *RENDER_SCENE, "--out", str(tmp_path / "pic.svg"), "--emit-scene")
        if isinstance(failure, OSError):
            assert run(capsys, *argv) == (
                2,
                f"wrote {tmp_path / 'pic.svg'}\n",
                f"error: cannot write {scene_path}: No space left on device\n",
            )
        else:
            with pytest.raises(KeyboardInterrupt):
                main(list(argv))
        assert scene_path.read_text() == first_chunk

    def test_out_to_dev_null_exits_0(self, capsys):
        assert run(capsys, "render", *RENDER_SCENE, "--out", os.devnull) == (
            0, f"wrote {os.devnull}\n", ""
        )

    @pytest.mark.skipif(not Path("/dev/stdout").exists(), reason="needs /dev/stdout")
    def test_out_to_a_piped_stdout_prints_the_svg(self):
        src = str(Path(geoseries.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-m", "geoseries.cli", "render", *RENDER_SCENE, "--out", "/dev/stdout"],
            capture_output=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        svg = render(build_layered_scene(derive_config(3), 3), RenderOptions())
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout == svg.encode("utf-8") + b"wrote /dev/stdout\n"

    @pytest.mark.skipif(not Path("/dev/stdout").exists(), reason="needs /dev/stdout")
    @pytest.mark.parametrize("case", ["out-truncated", "out-appended", "scene"])
    def test_an_output_that_is_stdouts_own_file_is_refused(self, tmp_path, case):
        # unrefused, "wrote /dev/stdout" was written over the SVG's first bytes, the SVG
        # over an appended-to file's lines, and "wrote ..." into the scene file
        src = str(Path(geoseries.__file__).resolve().parent.parent)
        target = tmp_path / ("pic.json" if case == "scene" else "log.txt")
        target.write_text("kept\n")
        out = [str(tmp_path / "pic.svg"), "--emit-scene"] if case == "scene" else ["/dev/stdout"]
        with open(target, "a" if case == "out-appended" else "w") as stdout:
            done = subprocess.run(
                [sys.executable, "-m", "geoseries.cli", "render", *RENDER_SCENE, "--out", *out],
                stdout=stdout, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
                timeout=120,
            )
        flag_does = "--emit-scene writes" if case == "scene" else "--out names"
        named = target if case == "scene" else "/dev/stdout"
        assert (done.returncode, done.stderr.decode()) == (
            2, f"error: {flag_does} {named}, the file standard output is written to\n"
        )
        assert target.read_text() == ("kept\n" if case == "out-appended" else "")
        assert not (tmp_path / "pic.svg").exists()

    def test_scene_beside_an_out_that_is_not_a_regular_file_is_refused(
        self, capsys, monkeypatch
    ):
        # unchecked, the SVG goes to the device and the scene to a new file beside it
        monkeypatch.setattr(cli, "build_layered_scene", lambda *args: pytest.fail("a scene was built"))
        assert run(capsys, "render", *RENDER_SCENE, "--out", os.devnull, "--emit-scene") == (
            2,
            "",
            f"error: --emit-scene needs --out to name a regular file, and {os.devnull} is not one\n",
        )
        assert not Path(os.devnull).with_suffix(".json").exists()

    def test_render_requires_construction(self, capsys, tmp_path):
        out_path = tmp_path / "x.svg"
        with pytest.raises(SystemExit) as exc:
            main(["render", "--out", str(out_path), "--s", "1/2"])
        assert exc.value.code == 2
        assert "the following arguments are required: --construction" in capsys.readouterr().err
        assert not out_path.exists()

    def test_scene_onto_the_svg_is_usage_error(self, capsys, tmp_path, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "build_layered_scene", lambda *args: built.append(args))
        out_path = tmp_path / "same.json"
        code, out, err = run(
            capsys, "render", *RENDER_SCENE, "--out", str(out_path), "--emit-scene"
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: --emit-scene writes the scene to {out_path}, the --out file; "
            "give --out another suffix\n"
        )
        assert built == []
        assert not out_path.exists()

    def test_empty_out_is_usage_error_before_the_build(self, capsys, monkeypatch):
        # Path("") is the current directory: unchecked, the scene is built and
        # rendered before its write fails with "cannot write .: Is a directory"
        built = []
        monkeypatch.setattr(cli, "build_layered_scene", lambda *args: built.append(args))
        assert run(capsys, "render", *RENDER_SCENE, "--out", "") == (
            2, "", "error: --out must name a file, got ''\n"
        )
        assert built == []

    @pytest.mark.parametrize(
        "name, error",
        [("adir", errno.EISDIR), ("nodir/x.svg", errno.ENOENT), ("afile/x.svg", errno.ENOTDIR),
         ("afile/sub/x.svg", errno.ENOTDIR)],
        ids=["a-directory", "no-parent", "under-a-file", "deeper-under-a-file"],
    )
    def test_unwritable_out_is_usage_error_before_the_build(
        self, capsys, monkeypatch, tmp_path, name, error
    ):
        # unchecked, the scene is built and rendered before its write fails, with this line
        (tmp_path / "adir").mkdir()
        (tmp_path / "afile").write_text("")
        out_path = tmp_path / name
        line = f"error: cannot write {out_path}: {os.strerror(error)}\n"
        with pytest.raises(cli.CliError) as late:
            cli._write_output(out_path, [""])
        assert f"error: {late.value}\n" == line
        monkeypatch.setattr(cli, "build_layered_scene", lambda *args: pytest.fail("a scene was built"))
        assert run(capsys, "render", *RENDER_SCENE, "--out", str(out_path)) == (2, "", line)

    def test_out_that_cannot_be_looked_up_is_usage_error_before_the_build(
        self, capsys, monkeypatch, tmp_path
    ):
        # as for a user who may not search the folder; unchecked, it reads as an
        # error on standard output
        out_path = tmp_path / "locked" / "x.svg"
        real_stat = os.stat

        def stat_as_a_stranger(path, *args, **kwargs):
            if os.fspath(path) == str(out_path):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
            return real_stat(path, *args, **kwargs)

        monkeypatch.setattr(os, "stat", stat_as_a_stranger)
        monkeypatch.setattr(cli, "build_layered_scene", lambda *args: pytest.fail("a scene was built"))
        assert run(capsys, "render", *RENDER_SCENE, "--out", str(out_path)) == (
            2, "", f"error: cannot write {out_path}: {os.strerror(errno.EACCES)}\n"
        )

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["render", "--construction", "layered", "--m", "2", "--bogus"])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("verify", "--construction", "layered", "--m", "3", "--s", "1/2"),
            "--s applies to the staircase construction only",
        ),
        (("verify", "--construction", "staircase"), "staircase construction requires --s P/Q"),
        (
            ("verify", "--construction", "staircase", "--s", "1/2", "--m", "3"),
            "--m applies to the layered construction only",
        ),
        (
            ("verify", "--construction", "staircase", "--s", "3/2"),
            "--s must lie strictly in (0,1), got 3/2",
        ),
        (("table", "--ratio", "1/2", "--first-term", "0"), "--first-term must be positive, got 0"),
        (("table", "--ratio", "1/2", "--terms", "0"), "--terms must be >= 1, got 0"),
        (
            ("verify", "--construction", "layered", "--m", "4", "--layers", "0",
             "--allow-infeasible"),
            "--layers must be >= 1, got 0",
        ),
    ],
    ids=["s-for-layered", "staircase-without-s", "m-for-staircase", "s-outside-0-1",
         "first-term-0", "terms-0", "layers-0-clamped"],
)
def test_usage_error_is_one_line_with_exit_2(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


# argv, exit code, and the sha256 of stdout + "\0" + stderr at COLUMNS=80 and
# at COLUMNS=40: every help text, usage line and parse error, pinned so that
# adding a subcommand's arguments only when it parses cannot change a byte
_PARSER_TEXTS = [
    (("--help",), 0,
     "7f133db2064faaa0b24711b89eb18b48ed5cd59dc8383385e2f7990839b5796b",
     "ef18ef492b216f16bef057300a86c5f7a64b24485ed8c460db079f9f78461f0d"),
    (("feasible", "--help"), 0,
     "c6ddf9f40f18ba721cac48450ec0c6927b77fc11d957e6aa7674bb38470aadaf",
     "4c030b83f21f229c089cf5ab3b80e206dad61aae8c0bdacca3afb817b1bd25d0"),
    (("verify", "--help"), 0,
     "d872323996e93ef862f88fb03d6b609fa387a6cd1bac5e6785ba6a7de882a227",
     "fa66aea989bacddf3d5d27959345aa9c3cb14a3d5093e686c005b198f158219a"),
    (("render", "--help"), 0,
     "38150161acd8acf7ed640707859f978a74ad3c4dd812e8ad3db24e6f55fdf334",
     "c2ef21df9f0214793355b800e180ed10190e49027e3632f227730050d77b560a"),
    (("table", "--help"), 0,
     "47dd72558a87bcf047b02cc283ed79bde6c73d9401b6daac6a0ba7c09a7ce24e",
     "d240b30e5ec977d83617fb99827db951dfaf4a76c67fbea5c4cdc26d86b0094c"),
    ((), 2,
     "a7fec73f26b1068a84f0e2e6e32381af21431cf57e80a32dddcc1b343c06f127",
     "24fe194fe98f4e230c0bf88b20b41252b82005d2280ccd183f26610057ce35c8"),
    (("bogus",), 2,
     "da7a9d784fd3f1e40d094f407c4c883baaa849a39b6cac514a7db3727caf0f3c",
     "559a8b63a5cf5b8e0d67068535c12b10d3e02808d8fd7c45ec56cc30c2d36315"),
    (("--bogus", "feasible"), 2,
     "223f405065d029d3de505b04d795ce678a38ce46e4f519bb6d3b089addd5bd30",
     "bd8b4e0f0415e019221beb163f1ebaa53cb8774d7f6965f8fd58c8123e69e1ed"),
    (("feasible", "--bogus"), 2,
     "223f405065d029d3de505b04d795ce678a38ce46e4f519bb6d3b089addd5bd30",
     "bd8b4e0f0415e019221beb163f1ebaa53cb8774d7f6965f8fd58c8123e69e1ed"),
    (("feasible", "--max-m", "1e3"), 2,
     "373fdc11f745b95551e748d637b55ab9008f287227e3e697fb39b86a03485f5b",
     "584c6edbd4d30aa59bb4874e24cd673b365d3bf44956e1af986b7e66cbec6001"),
    (("verify", "--m", "3"), 2,
     "27a438ef3c804a1b7bfef146e924e94204d04e191b2af14f6c9b4d8fb0d4567d",
     "1d9c851bf44dfbb7ca30713bf9be713c753abbbe5863655c054e9f2008f8d3ca"),
    (("verify", "--construction", "layered", "--from-scene", "x.json"), 2,
     "8a640ba6c8d81432173870b53e0e8de8c0b3256139ac09a84bdef0ada0a49cbc",
     "bca7c05c154502031446a05856a0aa9bf0f12ce5e2b92b900d2c9a9d8874b8e9"),
    (("render", "--construction", "layered"), 2,
     "46ec679e87d17e6eefea397281f310e4abfa333975da6489b462db182ec45f5c",
     "7db3a2276ed9ca36754fc8092ec5da348a6f5668cd7bd487162903061c11a935"),
    # a command line its subcommand parses with a word left over: the
    # top-level parser's "unrecognized arguments"
    (("feasible", "--format", "json", "x"), 2,
     "ecfd48772ccc261ba1efc8f7ded093b27ac6472204742404b4e53049b598e7fe",
     "c9932b9ea79ccf0f2a6a7e3248ce0891688888e16cdf0d4fdc778f57144b1e1d"),
    (("verify", "--construction", "layered", "--m", "3", "--bogus"), 2,
     "223f405065d029d3de505b04d795ce678a38ce46e4f519bb6d3b089addd5bd30",
     "bd8b4e0f0415e019221beb163f1ebaa53cb8774d7f6965f8fd58c8123e69e1ed"),
    (("render", "--construction", "layered", "--m", "3", "--out", "o.svg", "x"), 2,
     "ecfd48772ccc261ba1efc8f7ded093b27ac6472204742404b4e53049b598e7fe",
     "c9932b9ea79ccf0f2a6a7e3248ce0891688888e16cdf0d4fdc778f57144b1e1d"),
    (("table", "--ratio", "1/4", "--bogus"), 2,
     "223f405065d029d3de505b04d795ce678a38ce46e4f519bb6d3b089addd5bd30",
     "bd8b4e0f0415e019221beb163f1ebaa53cb8774d7f6965f8fd58c8123e69e1ed"),
]


@pytest.mark.parametrize("columns", [80, 40])
@pytest.mark.parametrize(
    "argv, want_code, digest80, digest40",
    _PARSER_TEXTS,
    ids=[" ".join(argv) or "no-command" for argv, *_ in _PARSER_TEXTS],
)
def test_parser_texts_are_pinned(
    capsys, monkeypatch, columns, argv, want_code, digest80, digest40
):
    monkeypatch.setenv("COLUMNS", str(columns))
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    digest = hashlib.sha256(f"{out}\0{err}".encode()).hexdigest()
    assert exc.value.code == want_code
    assert digest == (digest80 if columns == 80 else digest40), out + err


@pytest.mark.parametrize(
    "argv, absent",
    [
        (("feasible", "--max-m", "3"), {"--construction", "--ratio", "--out"}),
        (("table", "--ratio", "1/4", "--terms", "3"), {"--from-scene", "--max-m", "--out"}),
    ],
    ids=["feasible", "table"],
)
def test_a_command_adds_only_its_own_arguments(capsys, monkeypatch, argv, absent):
    # every argument, a mutually exclusive group's too, is made as an Action;
    # ArgumentParser.add_argument alone would miss verify's --from-scene
    added = []
    init = argparse.Action.__init__

    def record(self, option_strings, *args, **kwargs):
        added.extend(option_strings)
        init(self, option_strings, *args, **kwargs)

    monkeypatch.setattr(argparse.Action, "__init__", record)
    assert run(capsys, *argv)[0] == 0
    assert argv[1] in added
    assert absent.isdisjoint(added), sorted(absent.intersection(added))


@pytest.mark.parametrize(
    "argv, want_code, parsers",
    [
        (("feasible", "--max-m", "3"), 0, 1),
        (("verify", "--construction", "layered", "--m", "3", "--layers", "1"), 0, 1),
        (("render", "--construction", "layered", "--m", "3", "--layers", "1", "--out", "OUT"),
         0, 1),
        (("table", "--ratio", "1/4", "--terms", "3"), 0, 1),
        (("--help",), 0, 1 + len(cli._COMMANDS)),
        ((), 2, 1 + len(cli._COMMANDS)),
        (("bogus",), 2, 1 + len(cli._COMMANDS)),
    ],
    ids=["feasible", "verify", "render", "table", "help", "no-command", "bogus"],
)
def test_a_command_makes_only_its_own_parser(
    capsys, monkeypatch, tmp_path, argv, want_code, parsers
):
    # a command makes its subcommand's parser alone; --help, no command and an
    # unknown one make the top-level parser and every subcommand's
    made = []
    init = argparse.ArgumentParser.__init__

    def record(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", record)
    try:
        code = main([str(tmp_path / "pic.svg") if a == "OUT" else a for a in argv])
    except SystemExit as exc:
        code = exc.code
    capsys.readouterr()
    assert code == want_code
    assert len(made) == parsers, made


def test_a_parser_reads_the_terminal_width_once(capsys, monkeypatch):
    # argparse makes a formatter for each argument it adds; each would read
    # the width itself if its parser did not give it one
    calls = []
    size = shutil.get_terminal_size

    def record(*args, **kwargs):
        calls.append(args)
        return size(*args, **kwargs)

    monkeypatch.setattr(shutil, "get_terminal_size", record)
    assert run(capsys, "feasible", "--max-m", "3")[0] == 0
    assert len(calls) == 1


# command lines main parses, by its subcommand's parser alone or by the
# top-level one: the README's ten, then other spellings and word orders
_PARSE_ROUTE_LINES = [
    "render --construction layered --m 2 --layers 4 --out mabry_L4.svg",
    "render --construction layered --m 3 --layers 3 --out edgar_L3.svg",
    "render --construction staircase --s 3/5 --layers 3 --out staircase_3_5_L3.svg",
    "feasible --max-m 10 --format table",
    "table --ratio 1/4 --first-term 1/4 --terms 5",
    "verify --construction layered --m 3 --layers 6",
    "verify --construction staircase --s 1/2 --layers 8 --format json",
    "render --construction staircase --s 3/5 --layers 3 --out pic.svg --emit-scene",
    "verify --from-scene pic.json",
    "render --construction layered --m 4 --layers 2 --allow-infeasible --out m4.svg",
    "table --ratio=1/4 --terms=3",
    "verify --construction layered --m 3 --lay 2",
    "feasible --max 5",
    "feasible --max-m 3 --max-m 5 --format json --format table",
    "table -h --ratio x",
    "feasible -h --bogus",
    "feasible --he",
    "feasible -hx",
    "feasible -- x",
    "feasible --",
    "-- feasible",
    "table --ratio 1/4 --first-term -1/2",
    "feasible --max-m 1e3",
    "verify --m 3",
    "render --construction layered --m 3 --out o.svg x",
    "--help",
    "",
    "bogus",
    "--bogus feasible",
]


def _parse_outcome(capsys, parse, argv):
    """parse(argv)'s vars, or the exit code, stdout and stderr it exits with."""
    try:
        return vars(parse(list(argv)))
    except SystemExit as exc:
        return (exc.code, *capsys.readouterr())


@pytest.mark.parametrize("line", _PARSE_ROUTE_LINES, ids=lambda line: line or "no-command")
def test_main_parses_as_the_top_level_parser(capsys, monkeypatch, line):
    monkeypatch.setenv("COLUMNS", "80")
    argv = line.split()
    want = _parse_outcome(capsys, lambda argv: cli.build_parser().parse_args(argv), argv)
    assert _parse_outcome(capsys, cli._parse, argv) == want


_MINIMAL_ARGS = {
    "feasible": (),
    "verify": ("--construction", "layered", "--m", "3"),
    "render": ("--construction", "layered", "--out", "pic.svg"),
    "table": ("--ratio", "1/4"),
}


@pytest.mark.parametrize(
    "name, handler", [(name, handler) for name, _, _, handler in cli._COMMANDS],
    ids=[name for name, *_ in cli._COMMANDS],
)
def test_a_subcommand_parses_alike_on_both_routes(capsys, monkeypatch, name, handler):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.build_parser().parse_args([name, *_MINIMAL_ARGS[name]]).func is handler
    # an option before the name sends the line through the top-level parser,
    # which hands --help to the subcommand's parser before it sees --bogus
    helps = []
    for argv in (["--bogus", name, "--help"], [name, "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        helps.append(capsys.readouterr())
    assert helps[0] == helps[1]


@pytest.mark.parametrize(
    "construction", [("layered", "--m", "3"), ("staircase", "--s", "1/2")], ids=lambda c: c[0]
)
def test_render_of_negative_layers_is_one_line_with_exit_2(capsys, tmp_path, construction):
    out_path = tmp_path / "pic.svg"
    code, out, err = run(
        capsys, "render", "--construction", *construction, "--layers", "-3",
        "--out", str(out_path),
    )
    assert (code, out, err) == (2, "", "error: --layers must be >= 1, got -3\n")
    assert not out_path.exists()


def _tampered_scene(tmp_path) -> Path:
    """An emitted staircase file with a wrong s and an extra param whose key and
    value hold a quote, a backslash, a non-ASCII letter and a control character."""
    code = main(
        ["render", "--construction", "staircase", "--s", "1/2", "--layers", "3",
         "--out", str(tmp_path / "pic.svg"), "--emit-scene"]
    )
    assert code == 0
    scene_path = tmp_path / "pic.json"
    doc = json.loads(scene_path.read_text())
    doc["params"]["s"] = "2/5"
    doc["params"]['note "\\ é \x01'] = 'say "hi" \\ é \x07'
    scene_path.write_text(json.dumps(doc))
    return scene_path


CHUNK = geoseries.geometry._JSON_CHUNK
CHUNK_ROWS = geoseries.feasibility._CHUNK_ROWS


@pytest.mark.parametrize(
    "argv, want_code",
    [
        (("feasible", "--max-m", "2", "--format", "json"), 0),
        (("feasible", "--max-m", "10", "--format", "json"), 0),
        # one report past a full piece of json_array
        (("feasible", "--max-m", str(CHUNK + 2), "--format", "json"), 0),
        # one report past a full chunk of rows
        (("feasible", "--max-m", str(CHUNK_ROWS + 2), "--format", "json"), 0),
        (("verify", "--construction", "layered", "--m", "3", "--layers", "5", "--format", "json"), 0),
        (("verify", "--construction", "staircase", "--s", "3/5", "--layers", "6",
          "--format", "json"), 0),
        (("verify", "--construction", "layered", "--m", "4", "--layers", "3",
          "--allow-infeasible", "--format", "json"), 0),
        (("verify", "--from-scene", "TAMPERED"), 1),
        (("verify", "--from-scene", "TAMPERED", "--format", "json"), 1),
    ],
    ids=["feasible-2", "feasible-10", "feasible-piece-plus-1", "feasible-chunk-plus-1",
         "verify-layered", "verify-staircase", "verify-clamped-m4", "tampered", "tampered-json"],
)
def test_json_output_has_the_canonical_layout(capsys, tmp_path, argv, want_code):
    """Every JSON writer prints json.dumps(doc, indent=2) + "\\n" of its own document."""
    if "TAMPERED" in argv:
        argv = tuple(str(_tampered_scene(tmp_path)) if a == "TAMPERED" else a for a in argv)
        capsys.readouterr()
    code, out, _ = run(capsys, *argv)
    assert code == want_code
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    if want_code == 1:
        assert json.loads(out)["params"]['note "\\ é \x01'] == 'say "hi" \\ é \x07'


@pytest.mark.parametrize(
    "scene_args",
    [
        ("--construction", "layered", "--m", "2", "--layers", "1"),
        ("--construction", "staircase", "--s", "3/5", "--layers", "1"),
        # 2L + 1 polygons: one short of a chunk, then one past it
        ("--construction", "staircase", "--s", "1/2", "--layers", str(CHUNK // 2 - 1)),
        ("--construction", "staircase", "--s", "1/2", "--layers", str(CHUNK // 2)),
        # 3L + 1 polygons: exactly one chunk
        ("--construction", "layered", "--m", "2", "--layers", str((CHUNK - 1) // 3)),
    ],
    ids=["layered-L1", "staircase-L1", "chunk-minus-1", "chunk-plus-1", "one-chunk"],
)
def test_scene_file_has_the_canonical_layout(capsys, tmp_path, scene_args):
    out_path = tmp_path / "pic.svg"
    assert run(capsys, "render", *scene_args, "--out", str(out_path), "--emit-scene")[0] == 0
    text = out_path.with_suffix(".json").read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_import_loads_no_xml_or_network_modules():
    """`import geoseries.cli` and build_parser() in a fresh interpreter, without
    site: no module of xml, urllib, http, email or ssl is loaded by them, nor
    dataclasses or inspect, and every module they load is geoseries' own or the
    standard library's."""
    src = str(Path(geoseries.__file__).resolve().parent.parent)
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "before = set(sys.modules)\n"
        "import geoseries.cli\n"
        "geoseries.cli.build_parser()\n"
        "print(json.dumps([sorted(set(sys.modules) - before), sorted(sys.modules)]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    loaded, every = json.loads(done.stdout)
    assert "geoseries.cli" in loaded
    # the record classes are written out: a cold start compiles no dataclass methods
    assert [m for m in every if m in ("dataclasses", "inspect")] == []
    assert [m for m in loaded if m.split(".")[0] in ("xml", "urllib", "http", "email", "ssl")] == []
    # stdlib-only at run time: a third-party package that happens to be importable is not loaded
    top = {m.split(".")[0] for m in loaded}
    assert sorted(top - {"geoseries"} - sys.stdlib_module_names) == []


class CharCounter(io.TextIOBase):
    """A stdout that keeps only the number of characters written."""

    def __init__(self):
        self.written = 0

    def write(self, text):
        self.written += len(text)
        return len(text)


def test_verify_table_is_not_joined_whole(monkeypatch):
    # the table's lines joined into one string held its text twice, a peak of
    # about 4.5x the characters written; written line by line it is about 2.5x
    counter = CharCounter()
    monkeypatch.setattr("sys.stdout", counter)
    tracemalloc.start()
    try:
        assert main(["verify", "--construction", "layered", "--m", "3", "--layers", "1024"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counter.written > 3_000_000
    assert peak < 3.5 * counter.written, f"peak {peak} B for {counter.written} B written"


class FullStdout(io.TextIOBase):
    """A stdout on a full disk: every write fails, as on /dev/full."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_failed_stdout_write_is_one_line_in_process(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdout", FullStdout())
    assert main(["feasible", "--max-m", "3"]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write standard output: {os.strerror(errno.ENOSPC)}\n"
    )


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("sink", ["closed-pipe", "dev-full"])
@pytest.mark.parametrize(
    "argv",
    [
        ("feasible", "--max-m", "3"),
        ("feasible", "--max-m", "200000"),
        ("verify", "--construction", "layered", "--m", "3", "--layers", "300", "--format", "json"),
        ("feasible", "--help"),
        ("--help",),
        ("--bogus", "feasible", "--help"),
    ],
    ids=["feasible-3", "feasible-200000", "verify-json", "feasible-help", "help",
         "top-level-route-feasible-help"],
)
def test_failed_stdout_write_exits_2_with_one_line(argv, sink, unbuffered):
    """Output nobody can take ends in one error line and exit 2, not a traceback,
    and not the interpreter's "Exception ignored" when it flushes stdout at exit."""
    src = str(Path(geoseries.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    code = "import sys; from geoseries.cli import main; sys.exit(main())"
    if sink == "dev-full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this platform")
        stdout, reason = open("/dev/full", "w"), errno.ENOSPC
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)
        stdout, reason = os.fdopen(write_end, "w"), errno.EPIPE
    with stdout:
        done = subprocess.run(
            [sys.executable, "-c", code, *argv], stdout=stdout, stderr=subprocess.PIPE,
            env=env, text=True, timeout=120,
        )
    assert done.returncode == 2
    assert done.stderr == f"error: cannot write standard output: {os.strerror(reason)}\n"
