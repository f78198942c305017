import json

import pytest

from geoseries.cli import MAX_POLYGONS, main
from geoseries.rational import MAX_DENOMINATOR_BITS


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


class TestRender:
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

    def test_unwritable_scene_is_usage_error(self, capsys, tmp_path):
        (tmp_path / "pic.json").mkdir()  # the scene's path is taken by a directory
        code, out, err = run(
            capsys,
            "render", "--construction", "layered", "--m", "2", "--layers", "2",
            "--out", str(tmp_path / "pic.svg"), "--emit-scene",
        )
        assert code == 2
        assert out == f"wrote {tmp_path / 'pic.svg'}\n"
        assert err.startswith(f"error: cannot write {tmp_path / 'pic.json'}: ")
        assert err.count("\n") == 1

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["render", "--construction", "layered", "--m", "2", "--bogus"])
        assert exc.value.code == 2
