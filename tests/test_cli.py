"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "AES" in out and "leon3mp" in out


def test_export_verilog(tmp_path, capsys):
    path = tmp_path / "aes.v"
    assert main(["export", "--benchmark", "AES", "--scale", "tiny",
                 "--output", str(path)]) == 0
    text = path.read_text()
    assert text.startswith("module")
    from repro.netlist import loads

    nl = loads(text)
    assert nl.n_gates > 0


def test_export_bench_stdout(capsys):
    assert main(["export", "--benchmark", "Tate", "--scale", "tiny",
                 "--format", "bench"]) == 0
    out = capsys.readouterr().out
    assert "INPUT(" in out and "DFF(" in out


def test_tables_rejects_unknown_ids(capsys):
    assert main(["tables", "--only", "table99"]) == 2


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


@pytest.mark.parametrize("command", ["demo", "serve"])
@pytest.mark.parametrize("gates", ["0", "-5", "many", "1", "16", "24", "31"])
def test_non_positive_gates_rejected_at_parse(command, gates, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--gates", gates])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--gates" in err
    if gates.isdigit() and int(gates) >= 1:
        # 16 flops + 16 primary outputs each need a gate of their own.
        assert "at least 32" in err
    else:
        assert "positive integer" in err or "invalid int value" in err


@pytest.mark.parametrize("command", ["demo", "serve"])
def test_smallest_generatable_gates_accepted(command):
    assert build_parser().parse_args([command, "--gates", "32"]).gates == 32


# ------------------------------------------------------------------ doctor
def test_doctor_requires_cache_dir(monkeypatch, capsys):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert main(["doctor"]) == 2
    assert "no cache directory" in capsys.readouterr().err


def test_doctor_healthy_cache(tmp_path, capsys):
    from repro.runtime import ArtifactCache

    ArtifactCache(tmp_path).put("unit", {"x": 1}, [1, 2, 3])
    assert main(["doctor", "--cache-dir", str(tmp_path), "--deep"]) == 0
    out = capsys.readouterr().out
    assert "1 artifact(s), 0 problem(s)" in out


def test_doctor_reports_then_fixes_problems(tmp_path, capsys):
    from repro.runtime import ArtifactCache, cache_key_hash

    import os

    cache = ArtifactCache(tmp_path)
    cache.put("unit", {"x": 1}, [1, 2, 3])
    digest = cache_key_hash({"x": 1})
    (tmp_path / "unit" / digest[:2] / f"{digest}.key.json").unlink()
    stale = tmp_path / "unit" / "stale.tmp"
    stale.write_bytes(b"")
    os.utime(stale, (0, 0))  # old enough for --fix's tmp age guard

    assert main(["doctor", "--cache-dir", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "2 problem(s)" in out
    assert "payload without sidecar" in out and "orphan tmp file" in out

    assert main(["doctor", "--cache-dir", str(tmp_path), "--fix"]) == 0
    assert "repaired 2 problem(s)" in capsys.readouterr().out
    assert main(["doctor", "--cache-dir", str(tmp_path)]) == 0


def test_doctor_honors_env_cache_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["doctor"]) == 0
    assert "0 problem(s)" in capsys.readouterr().out


@pytest.mark.slow
def test_tables_single_table(capsys):
    assert main(["tables", "--scale", "tiny", "--samples", "8",
                 "--only", "table3"]) == 0
    out = capsys.readouterr().out
    assert "Table III" in out


# ------------------------------------------------------------------- serve
def test_serve_requires_a_frontend(capsys):
    assert main(["serve"]) == 2
    assert "--http" in capsys.readouterr().err


def test_serve_rejects_empty_config_list(capsys):
    assert main(["serve", "--stdin", "--configs", " , "]) == 2
    assert "at least one" in capsys.readouterr().err


def test_serve_stdin_end_to_end(monkeypatch, capsys):
    """`repro serve --stdin` answers a real datalog and a garbage line."""
    import io
    import json

    from repro import DesignConfig, GeneratorSpec, build_dataset, prepare_design
    from repro.tester.datalog import dumps_datalog

    # The same design the serve command builds for these flags.
    spec = GeneratorSpec("serve-syn-1", "aes_like", 120, 16, 16, 16, seed=7)
    design = prepare_design(
        spec, DesignConfig.standard("Syn-1"), n_chains=4, chains_per_channel=2,
        max_patterns=128,
    )
    chip = build_dataset(design, "bypass", 1, seed=5).items[0]
    submission = {
        "id": "cli0",
        "datalog": dumps_datalog(chip.sample.log, "chip0", design.obsmap("bypass")),
    }
    lines = json.dumps(submission) + "\nnot json at all\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))

    assert main(["serve", "--stdin", "--gates", "120", "--train-samples", "12",
                 "--epochs", "2", "--max-batch", "4"]) == 0
    captured = capsys.readouterr()
    # Response lines only — the runtime's [stage] progress also hits stdout.
    docs = [json.loads(ln) for ln in captured.out.splitlines()
            if ln.startswith("{")]
    assert len(docs) == 2
    assert docs[0]["ok"] and docs[0]["id"] == "cli0" and docs[0]["chip"] == "chip0"
    assert docs[0]["provenance"]["model_version"] == "v1"
    assert not docs[1]["ok"] and docs[1]["error"]["type"] == "bad_json"
    assert "served 2 stdin submission(s)" in captured.err
