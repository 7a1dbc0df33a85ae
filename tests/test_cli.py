import pathlib
import subprocess
import sys

import pytest

from csst import cli, harness
from csst.cli import main
from csst.core import PoError, PoErrorKind

DATA = pathlib.Path(__file__).parent / "data"

# An acyclic log whose answers cover both spellings of a missing answer,
# an own-chain answer and answers across a grown chain.
OPLOG = """\
init 3 3 3 2
ins 0 1 1 1
succ 0 0 1
succ 0 2 1
pred 1 0 0
pred 1 2 0
succ 0 1 0
grow 2 4
ins 1 2 2 3
succ 0 0 2
pred 2 3 0
reach 0 0 2 2
reach 0 1 2 3
"""
ANSWERS = """\
succ -> 1
succ -> inf
pred -> none
pred -> 1
succ -> 1
succ -> 3
pred -> 1
reach -> false
reach -> true
"""


@pytest.mark.parametrize("backend", sorted(harness.BACKENDS))
def test_replay_prints_answers(tmp_path, capsys, backend):
    p = tmp_path / "w.ops"
    p.write_text(OPLOG)
    assert main(["replay", str(p), "--backend", backend]) == 0
    assert capsys.readouterr().out == ANSWERS


def test_replay_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", __import__("io").StringIO(OPLOG))
    assert main(["replay", "-"]) == 0
    assert capsys.readouterr().out == ANSWERS


def test_replay_missing_file_is_a_usage_error(capsys):
    assert main(["replay", "no-such-file.ops"]) == 1
    assert "error:" in capsys.readouterr().err


def test_replay_bad_oplog_is_a_usage_error(tmp_path, capsys):
    p = tmp_path / "w.ops"
    p.write_text("ins 0 0 1 1\n")
    assert main(["replay", str(p)]) == 1
    assert "init" in capsys.readouterr().err


def test_replay_out_of_range_op_is_an_input_error(tmp_path, capsys):
    p = tmp_path / "w.ops"
    p.write_text("init 2 3 3\nins 0 9 1 1\n")
    assert main(["replay", str(p)]) == 1


CYCLIC_OPLOG = """\
init 2 2 2
ins 1 1 0 1
ins 0 1 1 0
ins 1 0 0 0
reach 1 1 0 0
"""


@pytest.mark.parametrize("backend", ["csst-inc", "st"])
def test_replay_refuses_a_cycle_on_the_eager_folds(tmp_path, capsys, backend):
    # The second insert closes a cycle through (1,0) -> (1,1) -> (0,1).
    p = tmp_path / "w.ops"
    p.write_text(CYCLIC_OPLOG)
    assert main(["replay", str(p), "--backend", backend]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: CycleDetected")
    assert "Traceback" not in err


@pytest.mark.parametrize("backend", ["csst-dyn", "vc", "graph"])
def test_replay_answers_on_a_cycle_elsewhere(tmp_path, capsys, backend):
    p = tmp_path / "w.ops"
    p.write_text(CYCLIC_OPLOG)
    assert main(["replay", str(p), "--backend", backend]) == 0
    assert capsys.readouterr().out == "reach -> true\n"


def test_missing_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 1


def test_fuzz_requires_a_seed(capsys):
    with pytest.raises(SystemExit) as e:
        main(["fuzz"])
    assert e.value.code == 1


def test_fuzz_clean_run(capsys):
    rc = main(["fuzz", "--seed", "5", "--runs", "4", "--max-updates", "30", "--max-queries", "40"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("ok: 4 runs")


def test_fuzz_delete_mix(capsys):
    rc = main(["fuzz", "--seed", "6", "--runs", "3", "--deletes", "0.3",
               "--max-updates", "30", "--max-queries", "40"])
    assert rc == 0


def test_fuzz_bad_fraction(capsys):
    assert main(["fuzz", "--seed", "1", "--deletes", "1.5"]) == 1


class _Wrong(harness.BACKENDS["st"]):
    def _predecessor(self, u, t2):
        r = super()._predecessor(u, t2)
        return r if r < 0 else max(r - 1, 0)


def test_fuzz_disagreement_exits_two(monkeypatch, capsys):
    monkeypatch.setitem(harness.BACKENDS, "st", _Wrong)
    rc = main(["fuzz", "--seed", "9", "--runs", "50", "--backends", "st",
               "--max-updates", "25", "--max-queries", "60"])
    assert rc == 2
    out = capsys.readouterr().out
    assert "reproducer op-log" in out and "init" in out


def test_bench_no_timing_is_byte_stable(capsys):
    argv = ["bench", "--backend", "csst-dyn", "--k", "3", "--ell", "50",
            "--window", "12", "--factor", "3", "--queries", "80",
            "--seed", "4", "--no-timing"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert first.splitlines()[0] == harness.CSV_HEADER


def test_bench_needs_two_chains(capsys):
    assert main(["bench", "--backend", "vc", "--k", "1", "--ell", "10", "--seed", "1"]) == 1


def test_option_defaults_are_the_dataclass_defaults(monkeypatch, capsys):
    seen = []

    def fake_fuzz(seed, runs, opts, backends):
        seen.append(opts)
        return runs, None

    class _Row:
        def csv(self):
            return ""

    def fake_run_bench(cfg):
        seen.append(cfg)
        return _Row()

    monkeypatch.setattr(cli, "fuzz", fake_fuzz)
    monkeypatch.setattr(cli, "run_bench", fake_run_bench)
    assert main(["fuzz", "--seed", "1"]) == 0
    assert main(["bench", "--backend", "vc", "--k", "2", "--ell", "10", "--seed", "1"]) == 0
    assert seen == [
        harness.FuzzOptions(),
        harness.BenchConfig(backend="vc", k=2, ell=10, seed=1),
    ]


def test_satcheck_consistent_trace(capsys):
    assert main(["satcheck", str(DATA / "two_candidates.trace")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "CONSISTENT"
    assert out[1:] == [
        "read 0 1 from 1 2",
        "read 2 2 from 1 1",
        "read 0 2 from 2 0",
    ]


def test_satcheck_inconsistent_trace(tmp_path, capsys):
    p = tmp_path / "t.trace"
    p.write_text("e 0 0 w x 1\ne 1 0 r x 2\n")
    assert main(["satcheck", str(p)]) == 0
    assert capsys.readouterr().out == "INCONSISTENT\n"


def test_satcheck_contradictory_orderings(tmp_path, capsys):
    p = tmp_path / "t.trace"
    p.write_text("e 0 0 w x 1\ne 1 0 r x 1\no 0 0 1 0\no 1 0 0 0\n")
    assert main(["satcheck", str(p)]) == 1


def test_satcheck_malformed_trace(tmp_path, capsys):
    p = tmp_path / "t.trace"
    p.write_text("e 0 0 w x\n")
    assert main(["satcheck", str(p)]) == 1


@pytest.mark.parametrize(
    "text, line",
    [
        ("e 0 0 w x 1.5\n", "line 1: non-integer field in 'e 0 0 w x 1.5'"),
        ("e 0 0 w x 1\ne 1 0 r x 1\no 0 0 1 z\n", "line 3: non-integer field in 'o 0 0 1 z'"),
    ],
)
def test_satcheck_names_the_line_of_a_non_integer_field(tmp_path, capsys, text, line):
    p = tmp_path / "t.trace"
    p.write_text(text)
    assert main(["satcheck", str(p)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {line}\n"


def test_satcheck_rejects_an_unknown_event_kind(tmp_path, capsys):
    p = tmp_path / "t.trace"
    p.write_text("e 0 0 w x 1\ne 0 1 q x 2\ne 1 0 r x 1\no 0 1 1 0\n")
    assert main(["satcheck", str(p)]) == 1
    err = capsys.readouterr().err
    assert "kind must be w or r, got 'q'" in err
    assert "Traceback" not in err


def test_satcheck_rejects_a_gap_in_thread_ids(tmp_path, capsys):
    p = tmp_path / "t.trace"
    p.write_text("e 0 0 w x 1\ne 600 0 r x 1\n")
    assert main(["satcheck", str(p)]) == 1
    err = capsys.readouterr().err
    assert "thread ids must run 0..T-1" in err
    assert "Traceback" not in err


def test_satcheck_long_thread_gets_a_verdict(tmp_path, capsys):
    # One write and 1100 reads of it on one thread: deeper than the default
    # recursion limit in both the binding search and the interleaving search.
    p = tmp_path / "t.trace"
    p.write_text("e 0 0 w x 1\n" + "".join(f"e 0 {i} r x 1\n" for i in range(1, 1101)))
    assert main(["satcheck", str(p)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "CONSISTENT"
    assert out[1:] == [f"read 0 {i} from 0 0" for i in range(1, 1101)]


def test_console_entry_point_runs():
    r = subprocess.run(
        [sys.executable, "-m", "csst", "satcheck", str(DATA / "two_candidates.trace")],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0
    assert r.stdout.startswith("CONSISTENT")


@pytest.mark.parametrize("argv, option", [
    (["fuzz", "--seed", "1", "--runs", "-3"], "--runs"),
    (["fuzz", "--seed", "1", "--max-k", "1"], "--max-k"),
    (["fuzz", "--seed", "1", "--max-len", "0"], "--max-len"),
    (["fuzz", "--seed", "1", "--max-updates", "0"], "--max-updates"),
    (["fuzz", "--seed", "1", "--max-queries", "-1"], "--max-queries"),
    (["bench", "--backend", "csst-dyn", "--k", "2", "--ell", "0", "--seed", "1"], "--ell"),
    (["bench", "--backend", "csst-dyn", "--k", "2", "--ell", "10", "--seed", "1",
      "--window", "-1"], "--window"),
    (["bench", "--backend", "csst-dyn", "--k", "2", "--ell", "10", "--seed", "1",
      "--factor", "-1"], "--factor"),
    (["bench", "--backend", "csst-dyn", "--k", "2", "--ell", "10", "--seed", "1",
      "--queries", "-1"], "--queries"),
])
def test_out_of_range_counts_are_rejected_by_name(argv, option, capsys):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {option} must be >= ")


def test_fuzz_zero_runs_is_clean(capsys):
    assert main(["fuzz", "--seed", "1", "--runs", "0"]) == 0
    assert capsys.readouterr().out == "ok: 0 runs, no disagreements\n"


class _Planted(harness.BACKENDS["csst-inc"]):
    # Refuses, as a cycle, every edge from a higher chain to a later index.
    def _insert_edge(self, u, v):
        if u.chain > v.chain and u.index < v.index:
            raise PoError(PoErrorKind.CYCLE_DETECTED, (u, v))
        super()._insert_edge(u, v)


def test_fuzz_backend_raising_where_the_oracle_answers_exits_two(monkeypatch, capsys):
    monkeypatch.setitem(harness.BACKENDS, "csst-inc", _Planted)
    rc = main(["fuzz", "--seed", "9", "--runs", "50", "--backends", "csst-inc",
               "--max-updates", "25", "--max-queries", "60"])
    assert rc == 2
    out = capsys.readouterr().out
    assert "backend csst-inc raised CycleDetected" in out
    records = harness.parse_oplog(out.split("reproducer op-log:\n", 1)[1])
    assert [r.op for r in records] == ["init", "ins"]
    harness.replay(records, "oracle")
    with pytest.raises(PoError) as err:
        harness.replay(records, "csst-inc")
    assert err.value.kind is PoErrorKind.CYCLE_DETECTED


@pytest.mark.parametrize("error", [IndexError, ValueError])
def test_fuzz_backend_raising_any_exception_exits_two(monkeypatch, capsys, error):
    # A ValueError must not pass for the oracle refusing the log, nor any
    # other exception escape as a traceback, whether a backend raises in an
    # answer (csst-inc's insert), in an invariant read (csst-dyn's
    # direct-minimum check) or in its constructor (csst-inc's, on init).
    def planted(self, *args):
        raise error("planted")

    real = dict(harness.BACKENDS)
    for backend, method, ops in (
        ("csst-inc", "_insert_edge", ["init", "ins"]),
        ("csst-dyn", "direct_minimum", ["init", "ins"]),
        ("csst-inc", "__init__", ["init"]),
    ):
        raising = type("Raising", (real[backend],), {method: planted})
        monkeypatch.setitem(harness.BACKENDS, backend, raising)
        rc = main(["fuzz", "--seed", "7", "--runs", "20", "--backends", backend])
        assert rc == 2, (backend, method)
        out = capsys.readouterr().out
        assert f"backend {backend} raised {error.__name__}: planted on `{ops[-1]} " in out
        records = harness.parse_oplog(out.split("reproducer op-log:\n", 1)[1])
        assert [r.op for r in records] == ops
        assert harness._first_failure(records, [backend]) is not None


def test_fuzz_refuses_the_oracle_as_a_backend(capsys):
    # raced against itself the oracle would check nothing
    rc = main(["fuzz", "--seed", "1", "--runs", "3", "--backends", "oracle"])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: unknown backend 'oracle' (choose from {sorted(harness.BACKENDS)})\n"


@pytest.mark.parametrize("backend", ["csst-inc", "st", "vc"])
def test_fuzz_refuses_deletes_on_an_insert_only_backend(backend, capsys):
    rc = main(["fuzz", "--seed", "1", "--runs", "3", "--backends", f"csst-dyn,{backend}",
               "--deletes", "0.5"])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: backend {backend} is insert-only; it cannot be fuzzed with deletes\n"


def test_replay_out_of_memory_is_an_input_error(tmp_path, capsys):
    # st's dense arrays ask for 10**18 slots; the allocation fails up front.
    p = tmp_path / "big.ops"
    p.write_text("init 2 5 5\ngrow 0 1000000000000000000\n")
    assert main(["replay", str(p), "--backend", "st"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: out of memory")
    assert "Traceback" not in err
