"""The mutation catalogue's tool, ``tools/mutate.py``: its entries are well
formed and current, and it reports a harmless mutation as a survivor, a
stale entry as stale, a break that stops a test module importing as killed
and a test that cannot run unbroken as unclean."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location("mutate",
                                                  ROOT / "tools" / "mutate.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_catalogue_entries_are_well_formed_and_current():
    entries = json.loads((ROOT / "tools" / "mutations.json").read_text(
        encoding="utf-8"))
    assert len({e["id"] for e in entries}) == len(entries) >= 10
    for e in entries:
        assert {"id", "file", "old", "new", "tests"} <= set(e), e["id"]
        assert e["old"] != e["new"] and e["tests"], e["id"]
        assert all("::" in t for t in e["tests"]), e["id"]
        text = (ROOT / e["file"]).read_text(encoding="utf-8")
        assert text.count(e["old"]) == 1, e["id"]


def test_tool_reports_survivors_and_stale_entries():
    tool = load_tool()
    fast = "tests/test_graph.py::test_degree_identities"
    entries = [
        {"id": "comment-only", "file": "src/bicomm/graph.py",
         "old": "# -- basic facts ---", "new": "# -- basic facts, edited ---",
         "tests": [fast]},
        {"id": "stale", "file": "src/bicomm/graph.py",
         "old": "text that the module does not hold", "new": "",
         "tests": [fast]},
        {"id": "in-degrees-dropped", "file": "src/bicomm/graph.py",
         "old": "k_in = np.bincount(e[:, 1], minlength=n_nodes)",
         "new": "k_in = 0 * np.bincount(e[:, 1], minlength=n_nodes)",
         "tests": [fast]},
        {"id": "import-broken", "file": "src/bicomm/graph.py",
         "old": "import numpy as np\n",
         "new": "import numpy as np\nraise ImportError('broken')\n",
         "tests": [fast]},
    ]
    log = []
    survivors, stale, unclean = tool.check(entries, log=log.append)
    assert (survivors, stale, unclean) == (["comment-only"], ["stale"], [])
    assert "killed    in-degrees-dropped" in log
    # a break that stops the test module importing runs no test: killed,
    # and said so
    assert f"killed    import-broken: {fast} did not run" in log


def test_tool_refuses_tests_that_do_not_run_unbroken():
    tool = load_tool()
    missing = "tests/test_graph.py::test_that_does_not_exist"
    entry = {"id": "any", "file": "src/bicomm/graph.py",
             "old": "# -- basic facts ---", "new": "# -- edited ---",
             "tests": [missing]}
    assert tool.check([entry], log=lambda line: None) == ([], [], [missing])
