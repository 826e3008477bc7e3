import itertools
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bicomm import optimizer
from bicomm.cli import main
from bicomm.edgestats import Partition, z_d, z_w
from bicomm.evaluation import misclassification_rate
from bicomm.genmodels import ConnectivityMatrix, ThetaSpec, sample_dcsbm
from bicomm.graph import load_edge_list


@pytest.fixture
def two_clique_file(tmp_path):
    lines = [f"a{i} a{j}" for i, j in itertools.combinations(range(5), 2)]
    lines += [f"b{i} b{j}" for i, j in itertools.combinations(range(5), 2)]
    path = tmp_path / "cliques.edges"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def write_labels(tmp_path, name, values):
    path = tmp_path / name
    path.write_text("\n".join(str(v) for v in values) + "\n")
    return str(path)


def test_detect_auto_recovers_cliques(tmp_path, two_clique_file):
    out = tmp_path / "report.json"
    code = main(["detect", "--edges", two_clique_file, "--undirected",
                 "--seed", "1", "--restarts", "10", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["selected"] == "zw-max"
    assert report["criterion"] == "penalized"
    assert report["n_nodes"] == 10 and report["n_edges"] == 20
    truth = [1 if name.startswith("a") else 0 for name in report["nodes"]]
    assert misclassification_rate(truth, report["labels"]) == 0.0
    assert set(report["candidates"]) == {"zw-max", "zw-min", "zd"}
    assert report["scores"]["clamp_events"] >= 0


def test_detect_gamma_tau_scores(tmp_path, two_clique_file):
    # disjoint equal cliques make a regular graph: the difference statistic
    # is constant there, so the zd candidate is excluded outright
    out = tmp_path / "report.json"
    code = main(["detect", "--edges", two_clique_file, "--undirected",
                 "--criterion", "gamma-tau", "--seed", "1", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["criterion"] == "gamma-tau"
    assert report["selected"] == "zw-max"
    assert report["excluded"] == ["zd"]
    assert report["scores"]["n_gamma_sq"] is None
    assert report["lambda"] is None

    # one cross edge breaks regularity and keeps all three candidates live
    lines = [f"a{i} a{j}" for i, j in itertools.combinations(range(5), 2)]
    lines += [f"b{i} b{j}" for i, j in itertools.combinations(range(5), 2)]
    lines.append("a0 b0")
    path = tmp_path / "bridged.edges"
    path.write_text("\n".join(lines) + "\n")
    code = main(["detect", "--edges", str(path), "--undirected",
                 "--criterion", "gamma-tau", "--seed", "1", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["excluded"] == []
    assert report["selected"] == "zw-max"
    scores = report["scores"]
    assert scores["n_tau_sq_max"] > scores["n_gamma_sq"]


def test_detect_single_method_and_warm_start(tmp_path, two_clique_file):
    out = tmp_path / "report.json"
    code = main(["detect", "--edges", two_clique_file, "--undirected",
                 "--method", "zw-max", "--seed", "2", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert list(report["candidates"]) == ["zw-max"]
    value = report["candidates"]["zw-max"]["objective_value"]

    warm = write_labels(tmp_path, "warm.labels", report["labels"])
    out2 = tmp_path / "warm.json"
    code = main(["detect", "--edges", two_clique_file, "--undirected",
                 "--method", "zw-max", "--restarts", "1", "--seed", "9",
                 "--warm-start", warm, "--out", str(out2)])
    assert code == 0
    again = json.loads(out2.read_text())
    assert again["candidates"]["zw-max"]["objective_value"] == value
    assert again["labels"] == report["labels"]


def test_detect_modularity_notes(tmp_path, two_clique_file):
    out = tmp_path / "report.json"
    code = main(["detect", "--edges", two_clique_file, "--undirected",
                 "--method", "modularity", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert "modularity_convention" in report["notes"]
    truth = [1 if name.startswith("a") else 0 for name in report["nodes"]]
    assert misclassification_rate(truth, report["labels"]) == 0.0


def test_detect_degenerate_graph_exits_4(tmp_path):
    lines = [f"{i} {j}" for i, j in itertools.combinations(range(5), 2)]
    path = tmp_path / "k5.edges"
    path.write_text("\n".join(lines) + "\n")
    code = main(["detect", "--edges", str(path), "--undirected",
                 "--method", "zw-max", "--out", str(tmp_path / "r.json")])
    assert code == 4
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["candidates"]["zw-max"]["degenerate"]
    # auto mode: every candidate degenerate -> no selection possible
    assert main(["detect", "--edges", str(path), "--undirected"]) == 4


def test_moments_payload_matches_library(tmp_path):
    path = tmp_path / "cycle.edges"
    path.write_text("0 1\n1 2\n2 3\n3 0\n")
    labels = write_labels(tmp_path, "cycle.labels", [1, 1, 0, 0])
    out = tmp_path / "moments.json"
    code = main(["moments", "--edges", str(path), "--labels", labels,
                 "--undirected", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    g = load_edge_list(str(path), directed=False)
    part = Partition(np.array([1, 1, 0, 0], dtype=np.int8))
    assert payload["r1"] == 1 and payload["r2"] == 1
    assert payload["r_w"] == pytest.approx(1.0)
    assert payload["r_d"] == 0
    assert payload["z_w"] == pytest.approx(z_w(g, part))
    assert payload["z_d"] == pytest.approx(z_d(g, part))
    assert payload["mu_w"] > 0 and payload["sigma_w"] > 0
    assert isinstance(payload["q"], float)
    assert isinstance(payload["q_d"], float)


def test_moments_flags_degenerate_complete_graph(tmp_path):
    lines = [f"{i} {j}" for i, j in itertools.combinations(range(4), 2)]
    path = tmp_path / "k4.edges"
    path.write_text("\n".join(lines) + "\n")
    labels = write_labels(tmp_path, "k4.labels", [1, 1, 0, 0])
    out = tmp_path / "m.json"
    assert main(["moments", "--edges", str(path), "--labels", labels,
                 "--undirected", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["degenerate_w"] and payload["degenerate_d"]
    assert payload["z_w"] == 0.0 and payload["z_d"] == 0.0


def test_moments_rejects_singleton_group(tmp_path):
    path = tmp_path / "cycle.edges"
    path.write_text("0 1\n1 2\n2 3\n3 0\n")
    labels = write_labels(tmp_path, "bad.labels", [1, 0, 0, 0])
    assert main(["moments", "--edges", str(path), "--labels", labels,
                 "--undirected"]) == 3


@pytest.mark.parametrize("method", ["auto", "zd"])
def test_detect_warm_start_with_a_singleton_group_exits_3(
        tmp_path, two_clique_file, method, capsys):
    """The warm start's group sizes are checked as ``moments`` checks its
    labels: exit 3 with the same message, before anything is fitted."""
    warm = write_labels(tmp_path, "warm.labels", [1] + [0] * 9)
    out = tmp_path / "report.json"
    assert main(["detect", "--edges", two_clique_file, "--undirected",
                 "--method", method, "--warm-start", warm,
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "error: labels must put at least 2 nodes in each group\n")
    assert not out.exists()
    assert main(["moments", "--edges", two_clique_file, "--undirected",
                 "--labels", warm]) == 3
    assert capsys.readouterr().err == (
        "error: labels must put at least 2 nodes in each group\n")


def test_eval_outputs(tmp_path, capsys):
    t = write_labels(tmp_path, "t.labels", [1, 1, 0, 0])
    same = write_labels(tmp_path, "same.labels", [1, 1, 0, 0])
    comp = write_labels(tmp_path, "comp.labels", [0, 0, 1, 1])
    off = write_labels(tmp_path, "off.labels", [1, 0, 0, 0])

    assert main(["eval", "--truth", t, "--est", same]) == 0
    assert capsys.readouterr().out == "0.000000\n"
    assert main(["eval", "--truth", t, "--est", comp]) == 0
    assert capsys.readouterr().out == "0.000000\n"
    assert main(["eval", "--truth", t, "--est", off]) == 0
    assert capsys.readouterr().out == "0.250000\n"


def test_eval_text_tokens_map_lexicographically(tmp_path, capsys):
    t = write_labels(tmp_path, "t.labels", ["left", "right", "right", "left"])
    e = write_labels(tmp_path, "e.labels", [0, 1, 1, 0])
    assert main(["eval", "--truth", t, "--est", e]) == 0
    assert capsys.readouterr().out == "0.000000\n"


def test_eval_error_paths(tmp_path, capsys):
    t = write_labels(tmp_path, "t.labels", [1, 1, 0, 0])
    short = write_labels(tmp_path, "short.labels", [1, 0])
    mono = write_labels(tmp_path, "mono.labels", [1, 1, 1])
    triple = write_labels(tmp_path, "three.labels", ["a", "b", "c", "a"])
    assert main(["eval", "--truth", t, "--est", short]) == 3
    assert main(["eval", "--truth", t, "--est", mono]) == 3
    assert main(["eval", "--truth", t, "--est", triple]) == 3
    assert main(["eval", "--truth", t, "--est", str(tmp_path / "nope")]) == 3
    capsys.readouterr()


SIM_ARGS = ["simulate", "--model", "sbm", "--p11", "0.9", "--p12", "0.1",
            "--p21", "0.1", "--p22", "0.9", "--m", "6", "--n", "6",
            "--undirected", "--reps", "4", "--restarts", "5", "--seed", "3"]


def test_simulate_csv_shape_and_determinism(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(SIM_ARGS + ["--out", str(a)]) == 0
    assert main(SIM_ARGS + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    lines = a.read_text().splitlines()
    assert lines[0] == "rep,eps_zw_max,eps_zw_min,eps_zd,selected,eps_selected,success"
    assert len(lines) == 6  # header + 4 reps + mean row
    assert [ln.split(",")[0] for ln in lines[1:]] == ["0", "1", "2", "3", "mean"]
    for ln in lines[1:5]:
        fields = ln.split(",")
        assert fields[4] in ("zw-max", "zw-min", "zd", "none")
        assert fields[6] in ("0", "1")


def test_simulate_jobs_do_not_change_output(tmp_path):
    a = tmp_path / "serial.csv"
    b = tmp_path / "parallel.csv"
    assert main(SIM_ARGS + ["--out", str(a)]) == 0
    assert main(SIM_ARGS + ["--jobs", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_worker_path_simulate_jobs_never_nest_workers(tmp_path, monkeypatch):
    """With the fork gate below the graph size, ``simulate --jobs 2`` writes
    the bytes of ``--jobs 1``, and its pool workers keep the serial path:
    only the main process may fork candidate workers."""
    honest = optimizer._workers_usable
    log = tmp_path / "gate.log"

    def logged(n_nodes):
        usable = honest(n_nodes)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {usable}\n")
        return usable

    monkeypatch.setattr(optimizer, "_FORK_MIN_N", 10)
    monkeypatch.setattr(optimizer, "_workers_usable", logged)
    a = tmp_path / "serial.csv"
    b = tmp_path / "parallel.csv"
    assert main(SIM_ARGS + ["--out", str(a)]) == 0
    here = log.read_text().split()
    assert set(here[::2]) == {str(os.getpid())}
    log.unlink()
    assert main(SIM_ARGS + ["--jobs", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    if multiprocessing.get_start_method() == "fork":  # the patches reach the pool
        pool = log.read_text().split()
        assert str(os.getpid()) not in pool[::2]
        assert set(pool[1::2]) == {"False"}
    assert multiprocessing.active_children() == []


def test_worker_path_detect_prints_its_report_once(tmp_path, two_clique_file):
    """Text still buffered for standard output when the workers fork is
    written once: two ``detect`` runs in one process print two reports."""
    code = ("import sys; from bicomm import optimizer; "
            "from bicomm.cli import main; optimizer._FORK_MIN_N = 0; "
            "argv = sys.argv[1:]; sys.exit(main(argv) or main(argv))")
    env = {k: v for k, v in os.environ.items()  # stdout block-buffered
           if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(optimizer.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code, "detect", "--edges", two_clique_file,
         "--undirected", "--restarts", "2"],
        capture_output=True, text=True, timeout=120,
        env=env)
    assert proc.returncode == 0, proc.stderr
    decoder = json.JSONDecoder()
    reports, rest = [], proc.stdout
    while rest.strip():
        report, end = decoder.raw_decode(rest.lstrip())
        reports.append(report)
        rest = rest.lstrip()[end:]
    assert len(reports) == 2
    for report in reports:
        report.pop("runtime_ms")
    assert reports[0] == reports[1]


def test_simulate_parameter_validation(capsys):
    bad_p = [arg if arg != "0.9" else "1.9" for arg in SIM_ARGS]
    assert main(bad_p) == 2
    bad_m = [arg if arg != "6" else "1" for arg in SIM_ARGS]
    assert main(bad_m) == 2
    assert main(SIM_ARGS + ["--reps", "0"]) == 2
    assert main(SIM_ARGS + ["--jobs", "0"]) == 2
    assert main(SIM_ARGS + ["--theta", "pareto"]) == 0  # ignored under sbm
    dc = [arg if arg != "sbm" else "dcsbm" for arg in SIM_ARGS]
    assert main(dc + ["--theta", "pareto"]) == 2
    assert main(dc + ["--theta", "pareto:3", "--reps", "1"]) == 0
    capsys.readouterr()
    # past the samplers' size limit, refused before anything is allocated
    for argv in (SIM_ARGS, dc + ["--theta", "pareto:3"]):
        huge = [arg if arg != "6" else "1000000000000" for arg in argv]
        assert main(huge) == 2
        assert "limit of 10000 nodes" in capsys.readouterr().err


def test_lambda_must_be_finite(tmp_path, capsys):
    # heterogeneous multipliers, so every candidate pays a penalty
    pg = sample_dcsbm(ConnectivityMatrix(0.5, 0.1, 0.1, 0.5), 10, 10,
                      ThetaSpec.pareto(3), False, np.random.default_rng(0))
    path = tmp_path / "het.edges"
    path.write_text("".join(f"{u} {v}\n" for u, v in pg.graph.edges.tolist()))
    detect = ["detect", "--edges", str(path), "--undirected", "--restarts", "3"]
    for lam in ("nan", "inf"):
        assert main(detect + ["--lambda", lam]) == 2
        assert "lambda must be finite" in capsys.readouterr().err
        assert main(SIM_ARGS + ["--lambda", lam]) == 2
        assert "lambda must be finite" in capsys.readouterr().err
    # finite, but every penalty overflows: the first candidate stands, tied,
    # and the -inf scores are written as strict JSON nulls
    out = tmp_path / "report.json"
    assert main(detect + ["--lambda", "1e308", "--out", str(out)]) == 0
    report = json.loads(out.read_text(), parse_constant=_no_constant)
    assert set(report["scores"]["pen_loglik"].values()) == {None}
    assert (report["selected"], report["tie"]) == ("zw-max", True)


def _no_constant(name):
    raise AssertionError(f"report holds the non-JSON constant {name}")


@pytest.mark.parametrize("lam", ["nan", "inf", "-inf", "-0.5"])
def test_bad_lambda_stops_before_any_work(tmp_path, two_clique_file, lam,
                                          capsys):
    """--lambda is checked while the arguments are parsed: exit 2 before the
    edge list is fitted or a replicate is sampled."""
    out = tmp_path / "report.json"
    boom = mock.Mock(side_effect=AssertionError("ran past a bad lambda"))
    with mock.patch("bicomm.cli.fit_all_candidates", boom), \
            mock.patch("bicomm.cli.sample_sbm", boom), \
            mock.patch("bicomm.cli.load_edge_list", boom):
        assert main(["detect", "--edges", two_clique_file, "--undirected",
                     f"--lambda={lam}", "--out", str(out)]) == 2
        assert "lambda must be finite" in capsys.readouterr().err
        assert main(SIM_ARGS + [f"--lambda={lam}"]) == 2
        assert "lambda must be finite" in capsys.readouterr().err
    boom.assert_not_called()
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--restarts", "0", "restarts must be >= 1"),
    ("--seed", "-3", "seed must be non-negative"),
])
def test_bad_fit_config_stops_before_any_work(tmp_path, two_clique_file, flag,
                                              value, message, capsys):
    """--restarts and --seed are checked while the arguments are parsed:
    exit 2 before the edge list is read or a replicate is sampled."""
    out = tmp_path / "report.json"
    boom = mock.Mock(side_effect=AssertionError(f"ran past a bad {flag}"))
    with mock.patch("bicomm.cli.fit_all_candidates", boom), \
            mock.patch("bicomm.cli.sample_sbm", boom), \
            mock.patch("bicomm.cli.load_edge_list", boom):
        assert main(["detect", "--edges", two_clique_file, "--undirected",
                     f"{flag}={value}", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert main(SIM_ARGS + [f"{flag}={value}"]) == 2
        assert message in capsys.readouterr().err
    boom.assert_not_called()
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--restarts", "x", "argument --restarts: invalid int value: 'x'"),
    ("--seed", "1.5", "argument --seed: invalid int value: '1.5'"),
    ("--lambda", "abc", "argument --lambda: invalid float value: 'abc'"),
])
def test_non_numeric_option_text_exits_2(two_clique_file, flag, value,
                                         message, capsys):
    assert main(["detect", "--edges", two_clique_file, "--undirected",
                 flag, value]) == 2
    assert message in capsys.readouterr().err
    assert main(SIM_ARGS + [flag, value]) == 2
    assert message in capsys.readouterr().err


def test_usage_and_format_exit_codes(tmp_path, capsys):
    assert main(["detect", "--edges", "x", "--undirected",
                 "--method", "zq"]) == 2        # unknown choice
    assert main(["detect"]) == 2                # missing required args
    assert main(["detect", "--edges", str(tmp_path / "missing.edges"),
                 "--undirected"]) == 3
    loop = tmp_path / "loop.edges"
    loop.write_text("0 0\n1 2\n3 4\n")
    assert main(["detect", "--edges", str(loop), "--undirected"]) == 3
    tiny = tmp_path / "tiny.edges"
    tiny.write_text("a b\nb c\n")
    assert main(["detect", "--edges", str(tiny), "--undirected"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("method", ["auto", "zw-max", "modularity"])
def test_detect_four_node_graph_is_too_small(tmp_path, method, capsys):
    """Four nodes pass the loader but leave the search no valid flip: exit
    3, graph too small, before anything is fitted."""
    cyc = tmp_path / "c4.edges"
    cyc.write_text("a b\nb c\nc d\nd a\n")
    out = tmp_path / "report.json"
    assert main(["detect", "--edges", str(cyc), "--undirected",
                 "--method", method, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "graph too small: 4 distinct nodes" in err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["non-utf8", "directory"])
def test_unreadable_input_files_exit_3(tmp_path, two_clique_file, kind, capsys):
    bad = tmp_path / "bad"
    if kind == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(b"a b\n\xe9 c\nc d\n")
    bad = str(bad)
    ok = write_labels(tmp_path, "ok.labels", [1] * 5 + [0] * 5)
    assert main(["detect", "--edges", bad, "--undirected"]) == 3
    assert main(["detect", "--edges", two_clique_file, "--undirected",
                 "--restarts", "1", "--warm-start", bad]) == 3
    assert main(["eval", "--truth", bad, "--est", ok]) == 3
    assert main(["eval", "--truth", ok, "--est", bad]) == 3
    assert main(["moments", "--edges", bad, "--labels", ok,
                 "--undirected"]) == 3
    assert main(["moments", "--edges", two_clique_file, "--labels", bad,
                 "--undirected"]) == 3
    assert capsys.readouterr().out == ""


_NODES = st.sampled_from(["0", "1", "a", "b", "c", "d", "e", "f", "\u00e9"])
_TOKENS = st.sampled_from(["0", "1", "a", "#", ",", "-1", "2", "\t", ""])
_lines = st.one_of(st.tuples(_NODES, _NODES).map(" ".join),
                   st.tuples(_NODES, _NODES).map(",".join),
                   st.lists(_TOKENS, max_size=4).map(" ".join))
_token_files = st.lists(_lines, max_size=25).map(
    lambda lines: "\n".join(lines).encode("utf-8"))
_input_files = st.one_of(st.binary(max_size=120), _token_files)


def _utf8(data):
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


@settings(max_examples=150, deadline=None)
@given(cmd=st.sampled_from(["detect", "eval", "moments"]),
       first=_input_files, second=_input_files, directed=st.booleans(),
       warm=st.booleans())
@example(cmd="detect", first=b"\xff\xfe a b\n", second=b"",
         directed=False, warm=False)
def test_fuzzed_input_files_give_documented_exit_codes(cmd, first, second,
                                                       directed, warm):
    """Random bytes or token soup as the edge list and the label file: the
    CLI returns 0, 2, 3 or 4 and raises nothing; a first file that is not
    UTF-8 gives 3."""
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp) / "first", Path(tmp) / "second"
        a.write_bytes(first)
        b.write_bytes(second)
        flag = "--directed" if directed else "--undirected"
        out = str(Path(tmp) / "out.json")
        if cmd == "detect":
            argv = ["detect", "--edges", str(a), flag, "--restarts", "1",
                    "--out", out] + (["--warm-start", str(b)] if warm else [])
        elif cmd == "eval":
            argv = ["eval", "--truth", str(a), "--est", str(b)]
        else:
            argv = ["moments", "--edges", str(a), "--labels", str(b), flag,
                    "--out", out]
        code = main(argv)
    assert code in (0, 2, 3, 4)
    if not _utf8(first):
        assert code == 3


def test_module_entry_point(tmp_path):
    t = tmp_path / "t.labels"
    t.write_text("1\n1\n0\n0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "bicomm.cli", "eval",
         "--truth", str(t), "--est", str(t)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "0.000000\n"
