"""Run the mutation catalogue: break the code on purpose, one known way at a
time, and check that the tests named for each break fail.

Usage: python3 tools/mutate.py

Each entry of the catalogue, ``tools/mutations.json`` (a JSON list), holds

- ``id``: a short name;
- ``file``: the file to break, relative to the repository root;
- ``old``: text that must occur in that file exactly once;
- ``new``: the text put in its place;
- ``tests``: pytest node ids of which every one must fail under the break
  (an id without a parameter part stands for all its parametrizations and
  fails when any of them fails);
- ``why``: optional, what the break does.

The tool copies ``src/``, ``tests/``, ``data/``, ``demos/`` and
``pyproject.toml`` to a temporary directory, checks that every named test
passes there unbroken, and then applies one entry at a time and runs its
tests with ``--hypothesis-seed=0``.  A named test that does not run under
a break (say, its module no longer imports) counts as failed, so the entry
is killed; its line says which tests did not run.  It prints one line per
entry and exits with status 1 if any entry survives (a named test still
passes) or is stale (``old`` does not occur exactly once), and with status
2 if the unbroken tests do not pass.  Needs only the standard library and
pytest.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOGUE = ROOT / "tools" / "mutations.json"
COPIED = ("src", "tests", "data", "demos", "pyproject.toml")


def _copy_tree(dest):
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns(
                "__pycache__", ".hypothesis", ".pytest_cache"))
        elif src.exists():
            shutil.copy2(src, dest / name)


def _case_key(node_id):
    """(classname, name) of a node id as pytest's JUnit XML reports it."""
    path, *parts = node_id.split("::")
    module = path[:-3] if path.endswith(".py") else path
    return ".".join([module.replace("/", ".")] + parts[:-1]), parts[-1]


def _run_tests(work, node_ids):
    """{node id: whether it failed} for a pytest run of ``node_ids`` in
    ``work``; an id with no test case reported is missing (None)."""
    report = work / "report.xml"
    env = dict(os.environ, PYTHONPATH=str(work / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, "-m", "pytest", "-q", "-p",
                    "no:cacheprovider", "--hypothesis-seed=0",
                    f"--junitxml={report}", *node_ids],
                   cwd=work, env=env, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, check=False)
    shutil.rmtree(work / ".hypothesis", ignore_errors=True)
    cases = []
    if report.exists():
        for case in ET.parse(report).iter("testcase"):
            bad = any(child.tag in ("failure", "error") for child in case)
            skipped = any(child.tag == "skipped" for child in case)
            cases.append((case.get("classname"), case.get("name"), bad,
                          skipped))
        report.unlink()
    out = {}
    for node_id in node_ids:
        cls, name = _case_key(node_id)
        hits = [(bad, skipped) for c, n, bad, skipped in cases
                if c == cls and (n == name or n.startswith(name + "["))]
        ran = [bad for bad, skipped in hits if not skipped]
        out[node_id] = any(ran) if ran else None
    return out


def check(entries, log=print):
    """Apply each entry in turn to one copy of the tree, restoring the file
    after each; returns the ids of the survivors, the stale entries and the
    named tests that do not pass (or do not run) unbroken, as three lists."""
    survivors, stale = [], []
    for entry in entries:
        text = (ROOT / entry["file"]).read_text(encoding="utf-8")
        if text.count(entry["old"]) != 1:
            stale.append(entry["id"])
            log(f"STALE     {entry['id']}: the old text occurs "
                f"{text.count(entry['old'])} times in {entry['file']}")
    live = [e for e in entries if e["id"] not in stale]
    named = sorted({t for e in live for t in e["tests"]})
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        work = Path(tmp)
        _copy_tree(work)
        baseline = _run_tests(work, named) if named else {}
        unclean = [t for t, failed in baseline.items() if failed is not False]
        for node_id in unclean:
            log(f"UNCLEAN   {node_id}: fails or does not run unbroken")
        if unclean:
            return survivors, stale, unclean
        for entry in live:
            path = work / entry["file"]
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace(entry["old"], entry["new"]),
                            encoding="utf-8")
            try:
                failed = _run_tests(work, entry["tests"])
            finally:
                path.write_text(text, encoding="utf-8")
            passed = [t for t, bad in failed.items() if bad is False]
            not_run = [t for t, bad in failed.items() if bad is None]
            if passed:
                survivors.append(entry["id"])
                log(f"SURVIVED  {entry['id']}: {', '.join(passed)} "
                    f"did not fail")
            elif not_run:
                log(f"killed    {entry['id']}: {', '.join(not_run)} "
                    f"did not run")
            else:
                log(f"killed    {entry['id']}")
    return survivors, stale, []


def main():
    entries = json.loads(CATALOGUE.read_text(encoding="utf-8"))
    survivors, stale, unclean = check(entries)
    if unclean:
        return 2
    print(f"{len(entries) - len(survivors) - len(stale)} of {len(entries)} "
          f"mutations killed, {len(survivors)} survived, {len(stale)} stale")
    return 1 if survivors or stale else 0


if __name__ == "__main__":
    sys.exit(main())
