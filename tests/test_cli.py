"""Instance/certificate file formats and the command-line surface."""

from __future__ import annotations

import argparse
import errno
import os
import pathlib
import re
import threading
from itertools import islice

import pytest

from gridlink import fileio, verifier
from gridlink.cli import _build_parser, format_report, main, report_body
from gridlink.fileio import (
    ParseError,
    parse_certificate,
    parse_instance,
    serialize_certificate,
)
from gridlink.grid import Vertex, edge, make_grid
from gridlink.routing import Infeasible, PathSystem, solve, verify
from gridlink.verifier import LemmaReport, iter_pairability_reduced

_THREE_ESCAPES = """\
grid 3 3
demand escape (1,1) -> {(3,1), (3,2), (3,3)} group 1
demand escape (1,2) -> {(3,1), (3,2), (3,3)} group 1
demand escape (1,3) -> {(3,1), (3,2), (3,3)} group 1
"""

# Q0 with the first column as terminals and the linked one on the line A
_T1_BLOCKED = """\
grid 3 3
remove_edge (3,1) (3,2)
remove_edge (3,2) (3,3)
demand pair (3,1) (2,3)
demand escape (1,1) -> {(3,1), (3,2), (3,3)}
demand escape (2,1) -> {(3,1), (3,2), (3,3)}
"""


# ------------------------------------------------------------ instance files

def test_parse_instance_full_grammar():
    inst = parse_instance(
        """
        # a commented header
        grid 4 4
        remove_edge (1,1) (1,2)
        forbid_edge (2,2) (2,3)   # trailing comment
        contract (4,4) (3,4)
        demand pair (1,1) (3,4)
        demand escape (2,1) -> {(4,1), (4,2)} group 0
        """
    )
    assert (inst.graph.rows, inst.graph.cols) == (4, 4)
    assert edge((1, 1), (1, 2)) not in inst.graph.present_edges
    # a forbidden edge is dropped from the instance's graph
    assert edge((2, 2), (2, 3)) not in inst.graph.present_edges
    assert inst.graph.present_edges == (
        make_grid(4, 4)
        .without_edges([edge((1, 1), (1, 2)), edge((2, 2), (2, 3))])
        .contracted((4, 4), (3, 4))
        .present_edges
    )
    assert Vertex(4, 4) not in inst.graph.present_vertices
    assert inst.demands[0].exits == {Vertex(3, 4)}
    assert inst.demands[0].distinct_group is None
    assert inst.demands[1].exits == {Vertex(4, 1), Vertex(4, 2)}
    assert inst.demands[1].distinct_group == 0


def test_contract_merges_the_first_vertex_into_the_second():
    inst = parse_instance(
        """
        grid 2 2
        contract (1,1) (1,2)
        demand pair (1,2) (2,1)
        """
    )
    assert Vertex(1, 1) not in inst.graph.present_vertices
    # (1,1)'s edge to (2,1) now belongs to (1,2)
    assert edge((1, 2), (2, 1)) in inst.graph.present_edges


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("demand pair (1,1) (1,2)\ngrid 2 2", "grid directive must come first"),
        ("grid 2 2\ngrid 2 2\ndemand pair (1,1) (1,2)", "duplicate grid"),
        ("grid 2 0\ndemand pair (1,1) (1,2)", "must be positive"),
        ("grid two 2\ndemand pair (1,1) (1,2)", "two integers"),
        ("grid 2 2\nsmooth (1,1) (1,2)", "unknown directive"),
        ("grid 2 2\ndemand walk (1,1) (1,2)", "unknown demand kind"),
        ("grid 2 2\ndemand pair (1,1)", "expected 2 (row,col) vertices"),
        ("grid 3 3\ndemand pair (1,1) (3,3) group 1", "expected only (row,col) vertices"),
        ("grid 2 2\ndemand pair (1,1) (5,5)", "not in the grid"),
        ("grid 2 2\nremove_edge (1,1) (2,2)", "cannot remove absent edges"),
        ("grid 2 2\nforbid_edge (1,1) (2,2)", "no edge between"),
        ("grid 2 2\ndemand escape (1,1) (2,2)", "escape demand wants"),
        ("grid 2 2\ndemand escape (1,1) -> (2,2)", "wants braces"),
        ("grid 2 2\ndemand escape (1,1) -> {}", "exit set is empty"),
        ("grid 2 2\ndemand escape (1,1) -> {(2,2)} crew 1", "unexpected trailing"),
        ("grid 2 2\ndemand escape (1,1) -> {(2,2)} group one", "group wants an integer"),
        ("grid 2 2\n# nothing else", "no demands"),
        ("# only chatter", "missing grid directive"),
        ("grid 2 2\ndemand pair (1,1) (2,2)\ncontract (2,2) (2,1)", "not in the grid"),
    ],
)
def test_parse_instance_diagnoses(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_instance(text, "case.inst")
    assert fragment in str(err.value)
    assert str(err.value).startswith("case.inst:")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_instance("grid 2 2\n\n# pad\ndemand pair (1,1) (9,9)", "f.inst")
    assert err.value.lineno == 4


# --------------------------------------------------------- certificate files

def test_certificate_round_trip_is_bit_exact():
    inst = parse_instance(_THREE_ESCAPES)
    sol = solve(inst)
    text = serialize_certificate(sol)
    assert serialize_certificate(parse_certificate(text)) == text
    assert text.startswith("path 0: (1,1)")


def test_infeasible_certificate_round_trip():
    text = serialize_certificate(Infeasible)
    assert text == "infeasible\n"
    assert parse_certificate(text) is Infeasible


def test_zero_length_path_round_trip():
    text = serialize_certificate(PathSystem(((Vertex(1, 1),),)))
    assert text == "path 0: (1,1)\n"
    assert parse_certificate(text).paths == ((Vertex(1, 1),),)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("path 1: (1,1)", "expected path 0"),
        ("path 0: (1,1)\ninfeasible", "sole line"),
        ("path 0:", "no vertices"),
        ("route 0: (1,1)", "expected 'path K:"),
        ("path 0: (1,1) junk (1,2)", "expected only (row,col) vertices"),
        ("", "empty certificate"),
    ],
)
def test_parse_certificate_diagnoses(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_certificate(text, "c.cert")
    assert fragment in str(err.value)


# ------------------------------------------------------------------ commands

def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_solve_zero_length_pair(tmp_path, capsys):
    path = _write(tmp_path, "one.inst", "grid 1 1\ndemand pair (1,1) (1,1)\n")
    assert main(["solve", path]) == 0
    assert capsys.readouterr().out == "path 0: (1,1)\n"


def test_solve_three_escapes(tmp_path, capsys):
    path = _write(tmp_path, "three.inst", _THREE_ESCAPES)
    assert main(["solve", path]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "path 0: (1,1) (2,1) (3,1)",
        "path 1: (1,2) (2,2) (3,2)",
        "path 2: (1,3) (2,3) (3,3)",
    ]


def test_solve_reports_infeasible_with_exit_1(tmp_path, capsys):
    path = _write(tmp_path, "t1.inst", _T1_BLOCKED)
    assert main(["solve", path]) == 1
    assert capsys.readouterr().out == "infeasible\n"


def test_solve_parse_error_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "bad.inst", "grid 2 2\ndemand pair (1,1) (9,9)\n")
    assert main(["solve", path]) == 2
    assert "bad.inst:2" in capsys.readouterr().err


def test_solve_an_oversized_grid_exits_2_without_building_it(tmp_path, monkeypatch, capsys):
    def refuse(rows, cols):
        raise AssertionError(f"built a {rows}x{cols} grid")

    monkeypatch.setattr(fileio, "make_grid", refuse)
    path = _write(tmp_path, "huge.inst", "grid 100000 100000\ndemand pair (1,1) (1,2)\n")
    assert main(["solve", path]) == 2
    err = capsys.readouterr().err
    assert "huge.inst:1" in err and "10000000000 vertices, more than 10000" in err
    # the largest grid the guard lets through is built
    monkeypatch.undo()
    path = _write(tmp_path, "wide.inst", "grid 1 10000\ndemand pair (1,1) (1,2)\n")
    assert main(["solve", path]) == 0
    assert capsys.readouterr().out == "path 0: (1,1) (1,2)\n"


def test_solve_missing_file_exits_2(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "absent.inst")]) == 2
    assert "cannot read file" in capsys.readouterr().err


def test_solve_verify_round_trip(tmp_path, capsys):
    inst = _write(tmp_path, "three.inst", _THREE_ESCAPES)
    assert main(["solve", inst]) == 0
    cert = _write(tmp_path, "three.cert", capsys.readouterr().out)
    assert main(["verify", inst, cert]) == 0
    assert "ok" in capsys.readouterr().out


def test_verify_rejects_edge_reuse(tmp_path, capsys):
    inst = _write(tmp_path, "three.inst", _THREE_ESCAPES)
    cert = _write(
        tmp_path,
        "bad.cert",
        "path 0: (1,1) (2,1) (3,1)\n"
        "path 1: (1,2) (1,1) (2,1) (3,1)\n"
        "path 2: (1,3) (2,3) (3,3)\n",
    )
    assert main(["verify", inst, cert]) == 1
    assert "edge reuse" in capsys.readouterr().out


def test_verify_rejects_wrong_path_count(tmp_path, capsys):
    inst = _write(tmp_path, "three.inst", _THREE_ESCAPES)
    cert = _write(tmp_path, "short.cert", "path 0: (1,1) (2,1) (3,1)\n")
    assert main(["verify", inst, cert]) == 1
    assert "path count mismatch: 1 paths for 3 demands" in capsys.readouterr().out


def test_verify_checks_infeasibility_claims(tmp_path, capsys):
    blocked = _write(tmp_path, "t1.inst", _T1_BLOCKED)
    cert = _write(tmp_path, "claim.cert", "infeasible\n")
    assert main(["verify", blocked, cert]) == 0
    assert capsys.readouterr().out == "ok: instance is infeasible (re-solved)\n"
    solvable = _write(tmp_path, "three.inst", _THREE_ESCAPES)
    assert main(["verify", solvable, cert]) == 1
    assert capsys.readouterr().out == (
        "invalid: certificate claims infeasible, but the instance is solvable (max-flow)\n"
    )


# Two distinct escapes onto two exits, one of them cut off by forbidden edges
_ESCAPES_SHORT_OF_EXITS = """\
grid 3 3
forbid_edge (2,3) (3,3)
forbid_edge (3,2) (3,3)
demand escape (1,1) -> {(3,1), (3,3)} group 1
demand escape (1,2) -> {(3,1), (3,3)} group 1
"""


def test_verify_confirms_infeasible_escapes_by_max_flow(tmp_path, capsys):
    inst = _write(tmp_path, "short.inst", _ESCAPES_SHORT_OF_EXITS)
    cert = _write(tmp_path, "claim.cert", "infeasible\n")
    assert main(["verify", inst, cert]) == 0
    assert capsys.readouterr().out == "ok: instance is infeasible (max-flow)\n"
    # without the forbidden edges the two escapes fit
    unforbidden = _ESCAPES_SHORT_OF_EXITS.replace("forbid_edge", "# forbid_edge")
    open_inst = _write(tmp_path, "open.inst", unforbidden)
    assert main(["verify", open_inst, cert]) == 1
    assert "solvable (max-flow)" in capsys.readouterr().out
    # escapes in two different groups are not one flow problem
    two_groups = _ESCAPES_SHORT_OF_EXITS.replace("group 1\ndemand", "group 2\ndemand")
    mixed = _write(tmp_path, "mixed.inst", two_groups)
    assert main(["verify", mixed, cert]) == 1
    assert "solvable (re-solved)" in capsys.readouterr().out


def test_verify_refuses_a_certificate_over_a_forbidden_edge(tmp_path, capsys):
    inst = _write(
        tmp_path, "forbid.inst", "grid 3 3\nforbid_edge (1,1) (1,2)\ndemand pair (1,1) (1,3)\n"
    )
    over = _write(tmp_path, "over.cert", "path 0: (1,1) (1,2) (1,3)\n")
    assert main(["verify", inst, over]) == 1
    out = capsys.readouterr().out
    assert out.startswith("invalid: path 0: ") and out.count("\n") == 1
    around = _write(tmp_path, "around.cert", "path 0: (1,1) (2,1) (2,2) (1,2) (1,3)\n")
    assert main(["verify", inst, around]) == 0
    assert capsys.readouterr().out == "ok: certificate verifies\n"


def test_verify_decides_pairs_with_one_target_by_max_flow(tmp_path, capsys):
    # a pair's exit set is its target: pairs sharing one target are one
    # flow problem, and two of them cannot both enter the end of a path
    cert = _write(tmp_path, "claim.cert", "infeasible\n")
    shared = _write(
        tmp_path,
        "shared.inst",
        "grid 1 3\ndemand pair (1,1) (1,3)\ndemand pair (1,2) (1,3)\n",
    )
    assert main(["verify", shared, cert]) == 0
    assert capsys.readouterr().out == "ok: instance is infeasible (max-flow)\n"
    one = _write(tmp_path, "one.inst", "grid 2 2\ndemand pair (1,1) (2,2)\n")
    assert main(["verify", one, cert]) == 1
    assert capsys.readouterr().out == (
        "invalid: certificate claims infeasible, but the instance is solvable (max-flow)\n"
    )


def test_verify_decides_a_long_escape_by_max_flow(tmp_path, capsys):
    # the flow oracle's path is 2,000 vertices long: deciding it must not
    # recurse once per step
    inst = _write(tmp_path, "long.inst", "grid 1 2000\ndemand escape (1,1) -> {(1,2000)}\n")
    cert = _write(tmp_path, "claim.cert", "infeasible\n")
    assert main(["verify", inst, cert]) == 1
    assert capsys.readouterr().out == (
        "invalid: certificate claims infeasible, but the instance is solvable (max-flow)\n"
    )


def _usage_error(capsys, argv):
    """Run ``argv``, which argparse must refuse, and return its stderr."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: gridlink")
    return err


def test_bad_usage_exits_2(tmp_path, capsys):
    _usage_error(capsys, ["lemma", "L99"])
    # a lemma runs exhaustively: it has no strategy to choose
    assert "unrecognized arguments: --strategy" in _usage_error(
        capsys, ["lemma", "L5", "--strategy", "random"]
    )
    assert main(["pairability"]) == 2  # sampling without a seed
    assert "requires an explicit seed" in capsys.readouterr().err


def test_a_seed_for_a_strategy_that_draws_nothing_exits_2(capsys):
    assert "unrecognized arguments: --seed 3" in _usage_error(capsys, ["lemma", "L5", "--seed", "3"])
    assert main(["pairability", "--exhaustive-reduced", "--seed", "3"]) == 2
    assert "reduced strategy draws nothing" in capsys.readouterr().err


def test_a_sample_count_for_a_strategy_that_draws_nothing_exits_2(capsys):
    assert "unrecognized arguments: --samples 5" in _usage_error(
        capsys, ["lemma", "L5", "--samples", "5"]
    )
    for argv in (["--exhaustive-reduced", "--samples", "5"], ["--samples", "5", "--exhaustive-reduced"]):
        assert "not allowed with argument" in _usage_error(capsys, ["pairability", *argv])


def test_out_of_range_worker_counts_exit_2(capsys):
    too_many = str((os.cpu_count() or 1) + 1)
    for workers in ("-1", "0", too_many):
        assert main(["pairability", "--samples", "2", "--seed", "1", "--workers", workers]) == 2
        assert "workers must be between 1 and" in capsys.readouterr().err
        assert main(["lemma", "L5", "--workers", workers]) == 2
        assert "workers must be between 1 and" in capsys.readouterr().err


def _no_campaign(campaign):
    raise AssertionError("the campaign ran")


def test_an_unwritable_report_path_exits_2_before_the_campaign(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("gridlink.cli.run_campaign", _no_campaign)
    path = str(tmp_path / "missing" / "r.txt")
    assert main(["lemma", "L5", "--report", path]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write report {path!r}: ")
    assert captured.out == ""
    assert main(["pairability", "--samples", "2", "--seed", "1", "--report", path]) == 2
    assert "error: cannot write report" in capsys.readouterr().err


def test_an_empty_report_path_exits_2_before_the_campaign(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("gridlink.cli.run_campaign", _no_campaign)
    monkeypatch.chdir(tmp_path)
    assert main(["lemma", "L5", "--report", ""]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: cannot write report '': not a regular file\n"
    assert captured.out == ""
    assert main(["pairability", "--samples", "2", "--seed", "1", "--report", ""]) == 2
    assert "error: cannot write report" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_a_report_path_that_is_not_a_regular_file_exits_2_before_the_campaign(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr("gridlink.cli.run_campaign", _no_campaign)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    (tmp_path / "link").symlink_to(fifo)
    for path in (fifo, tmp_path / "link", tmp_path):
        assert main(["lemma", "L5", "--report", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write report {str(path)!r}: not a regular file\n"
        )
    assert sorted(os.listdir(tmp_path)) == ["fifo", "link"]
    assert (tmp_path / "link").is_symlink() and (tmp_path / "fifo").is_fifo()


def test_a_report_directory_that_cannot_be_written_exits_2_before_the_campaign(
    tmp_path, monkeypatch, capsys
):
    # the report file itself opens, but the report is saved through a new file beside it
    monkeypatch.setattr("gridlink.cli.run_campaign", _no_campaign)

    def denied(prefix, dir):
        raise OSError(errno.EACCES, os.strerror(errno.EACCES))

    monkeypatch.setattr("gridlink.cli.tempfile.mkstemp", denied)
    path = tmp_path / "r.txt"
    path.write_bytes(b"old report\n")
    assert main(["lemma", "L5", "--report", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write report {str(path)!r}: Permission denied\n"
    )
    assert path.read_bytes() == b"old report\n"


def test_a_saved_report_is_synced_and_keeps_the_mode(tmp_path, monkeypatch, capsys):
    calls = []
    fsync, replace = os.fsync, os.replace
    monkeypatch.setattr(os, "fsync", lambda fd: (calls.append("fsync"), fsync(fd))[1])
    monkeypatch.setattr(os, "replace", lambda a, b: (calls.append("replace"), replace(a, b))[1])
    path = tmp_path / "r.txt"
    mask = os.umask(0o022)
    try:
        assert main(["lemma", "L5", "--report", str(path)]) == 0
        assert path.stat().st_mode & 0o777 == 0o644  # a new report follows the umask
        path.chmod(0o640)
        capsys.readouterr()
        (tmp_path / "link").symlink_to(path)
        assert main(["lemma", "L5", "--report", str(tmp_path / "link")]) == 0
    finally:
        os.umask(mask)
    assert calls == ["fsync", "replace"] * 2
    # the report replaces the link's target, and keeps its mode
    assert path.read_text() == capsys.readouterr().out
    assert path.stat().st_mode & 0o777 == 0o640
    assert (tmp_path / "link").is_symlink()
    assert sorted(os.listdir(tmp_path)) == ["link", "r.txt"]


def test_an_interrupted_campaign_exits_130_without_a_traceback(monkeypatch, capsys):
    def interrupted(campaign):
        raise KeyboardInterrupt

    monkeypatch.setattr("gridlink.cli.run_campaign", interrupted)
    assert main(["lemma", "L5"]) == 130
    assert capsys.readouterr().err == "interrupted\n"
    assert main(["pairability", "--samples", "2", "--seed", "1"]) == 130
    assert capsys.readouterr().err == "interrupted\n"


def test_a_failed_campaign_leaves_an_earlier_report_as_it_was(tmp_path, monkeypatch, capsys):
    path = tmp_path / "r.txt"
    path.write_bytes(b"old report\n")

    def interrupted(campaign):
        raise KeyboardInterrupt

    def failed(campaign):
        raise ValueError("bad campaign")

    monkeypatch.setattr("gridlink.cli.run_campaign", interrupted)
    assert main(["lemma", "L5", "--report", str(path)]) == 130
    assert path.read_bytes() == b"old report\n"
    monkeypatch.setattr("gridlink.cli.run_campaign", failed)
    assert main(["pairability", "--samples", "2", "--seed", "1", "--report", str(path)]) == 2
    assert capsys.readouterr().err.endswith("error: bad campaign\n")
    assert path.read_bytes() == b"old report\n"
    # a finished campaign replaces it
    monkeypatch.undo()
    assert main(["lemma", "L5", "--report", str(path)]) == 0
    assert path.read_text() == capsys.readouterr().out


def test_a_report_that_cannot_be_written_exits_2(tmp_path, monkeypatch, capsys):
    # the file opens, so the campaign runs; the disk fills as the report is saved
    path = tmp_path / "r.txt"

    def full_disk_open(name, mode, encoding):
        fh = open(name, mode, encoding=encoding)

        def write(text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        fh.write = write
        return fh

    monkeypatch.setattr("gridlink.cli.open", full_disk_open, raising=False)
    assert main(["lemma", "L5", "--report", str(path)]) == 2
    captured = capsys.readouterr()
    assert "status: conforming" in captured.out
    assert captured.err == f"error: cannot write report {str(path)!r}: No space left on device\n"
    assert not path.exists()
    # an earlier report survives the failed write whole, and no temporary file is left
    path.write_bytes(b"old report\n")
    assert main(["lemma", "L5", "--report", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write report {str(path)!r}: No space left on device\n"
    )
    assert path.read_bytes() == b"old report\n"
    assert os.listdir(tmp_path) == ["r.txt"]


def _dies(inst):
    os._exit(1)


def test_a_dead_worker_exits_3_without_a_hang(tmp_path, monkeypatch, capsys):
    path = tmp_path / "r.txt"
    iterate, _, *census = verifier._CAMPAIGNS["L5"]
    monkeypatch.setitem(verifier._CAMPAIGNS, "L5", (iterate, _dies, *census))
    codes = []
    thread = threading.Thread(
        target=lambda: codes.append(main(["lemma", "L5", "--workers", "2", "--report", str(path)])),
        daemon=True,
    )
    thread.start()
    thread.join(30)
    assert not thread.is_alive() and codes == [3]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a worker process died before the campaign finished\n"
    assert not path.exists()


def test_a_failed_campaign_leaves_no_new_report(tmp_path, monkeypatch, capsys):
    path = tmp_path / "new.txt"

    def interrupted(campaign):
        raise KeyboardInterrupt

    def failed(campaign):
        raise ValueError("bad campaign")

    monkeypatch.setattr("gridlink.cli.run_campaign", interrupted)
    assert main(["lemma", "L5", "--report", str(path)]) == 130
    assert capsys.readouterr().err == "interrupted\n"
    assert not path.exists()
    monkeypatch.setattr("gridlink.cli.run_campaign", failed)
    assert main(["pairability", "--samples", "2", "--seed", "1", "--report", str(path)]) == 2
    assert capsys.readouterr().err.endswith("error: bad campaign\n")
    assert not path.exists()


def test_lemma_reports_are_stable_and_conforming(tmp_path, capsys):
    assert main(["lemma", "L5"]) == 0
    first = capsys.readouterr().out
    assert main(["lemma", "L5"]) == 0
    second = capsys.readouterr().out
    assert report_body(first) == report_body(second)
    assert "campaign: L5" in first
    assert "instances: 162" in first
    assert "status: conforming" in first
    assert first != report_body(first)  # the timing tail exists and differs


def test_a_campaign_that_loses_an_instance_reads_defective(monkeypatch, capsys):
    # every certificate of the 161 left verifies; the census finds the lost one
    iterate, *rest = verifier._CAMPAIGNS["L5"]
    monkeypatch.setitem(verifier._CAMPAIGNS, "L5", (lambda: list(iterate())[:-1], *rest))
    assert main(["lemma", "L5"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "instances: 161" in out and "defects: 0" in out
    assert "status: defective" in out


def test_a_pairability_run_short_of_its_samples_reads_defective(monkeypatch, capsys):
    # every draw left is feasible; the census is the sample count asked for
    draw = verifier.enumerate_instances
    monkeypatch.setattr(verifier, "enumerate_instances", lambda *args: draw(*args)[:-1])
    assert main(["pairability", "--samples", "20", "--seed", "1"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "instances: 19" in out and "defects: 0" in out
    assert "status: defective" in out


def test_lemma_report_names_the_projection_families(tmp_path, capsys):
    out_path = tmp_path / "l9.report"
    assert main(["lemma", "L9", "--report", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "family T1: (1,1) (2,1) (3,1) | working (1,1) (2,1)" in out
    assert "family T2: (1,1) (1,2) (1,3) (2,3) | working (1,3) (2,3)" in out
    assert out_path.read_text() == out


def test_pairability_single_sample_is_reproducible(capsys):
    assert main(["pairability", "--samples", "1", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["pairability", "--samples", "1", "--seed", "7"]) == 0
    second = capsys.readouterr().out
    assert report_body(first) == report_body(second)
    assert "seed: 7" in first


def test_exhaustive_reduced_flag_drives_the_lazy_reduced_stream(monkeypatch, capsys):
    # stand in for the driver: the real sweep has ~4 x 10^8 placements
    seen = {}

    def fake_drive(campaign, runner, instances):
        seen.update(strategy=campaign.strategy, first=list(islice(instances, 3)))
        return LemmaReport(campaign, 0)

    monkeypatch.setattr(verifier, "drive", fake_drive)
    assert main(["pairability", "--exhaustive-reduced"]) == 0
    assert "strategy: reduced" in capsys.readouterr().out
    assert seen == {"strategy": "reduced", "first": list(islice(iter_pairability_reduced(), 3))}


def test_pairability_draws_100000_samples_unless_told_otherwise(monkeypatch, capsys):
    # stand in for verifier.drive: only the number of placements drawn matters
    drawn = []

    def fake_drive(campaign, runner, instances):
        n = len(instances)
        drawn.append(n)
        return LemmaReport(campaign, n)

    monkeypatch.setattr(verifier, "drive", fake_drive)
    assert main(["pairability", "--seed", "1"]) == 0
    assert main(["pairability", "--seed", "1", "--samples", "3"]) == 0
    assert drawn == [100000, 3]
    # the one default, which the help text reads too
    assert verifier.PAIRABILITY_SAMPLES == 100000
    assert "(default 100000)" in _subcommands()["pairability"].format_help()


def _subcommands() -> dict:
    """The subparsers of ``gridlink``, by name."""
    parser = _build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_the_readme_cli_block_lists_every_flag_and_no_other():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    listed: dict[str, set] = {}
    for line in block.splitlines():
        code = line.split("#", 1)[0]
        if code.startswith("gridlink "):
            flags = listed.setdefault(code.split()[1], set())
        flags.update(re.findall(r"--[a-z][a-z-]*", code))  # a continuation adds to its command
    parsed = {
        name: {s for a in sub._actions for s in a.option_strings if s.startswith("--")} - {"--help"}
        for name, sub in _subcommands().items()
    }
    assert listed == parsed


def test_the_readme_instance_file_parses_and_solves():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Instance files\n", 1)[1]
    block = section.split("```\n", 1)[1].split("```", 1)[0]
    inst = parse_instance(block, "README")
    assert len(inst.demands) == 2
    assert edge((2, 2), (2, 3)) not in inst.graph.present_edges
    got = solve(inst)
    assert got is not Infeasible and verify(inst, got)


def test_the_readme_campaign_table_lists_every_sized_campaign_with_its_count():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Campaigns\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.strip("|").split("|") for line in section.splitlines() if line.startswith("| ")]
    listed = {cells[0].strip(): cells[-1].strip() for cells in rows[1:]}  # past the header
    sized = {
        cid: str(size) for cid, (_, _, size, _) in verifier._CAMPAIGNS.items() if size is not None
    }
    assert listed == sized
