"""Generative guard: structurally edited golden files never crash the CLI.

Each example takes one golden witness file and makes one to three
structural edits to a JSON document drawn from it: a value (a field, a
node, a row or an entry) is replaced by junk, or deleted.  The document
is the certificate for ``verify`` and ``verify --target``, and its
target matrix for ``member`` and ``decompose``; ``verify --target``
edits either its certificate or its target file.  Whatever the edit,
``cli.main`` must exit 0, 1 or 2, print no traceback, and answer within
a generous time bound.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import tempfile
import time
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from sp4cert.cli import main
from sp4cert.groups import TWO_BY_TWO_LABELS, GroupLabel

GOLDEN = Path(__file__).resolve().parent / "golden"
WITNESSES = sorted(GOLDEN.glob("witness_p*.json"))
COMMANDS = ("verify", "verify --target", "member", "decompose")
# half the junk reads as an entry, an id or an op, so edited files get
# past the parser too; the other half has the wrong type or spelling
READABLE = ("0", "1", "-3", "1/3", "9" * 60, 0, 1, "inv", "conj")
UNREADABLE = (
    None, True, -1, 2 ** 70, 1.5, "", "x", "-0", "1/0", "2/4",
    [], [[]], ["1", "0"], {}, {"op": "mul"},
)
FOUR_BY_FOUR = [g.value for g in GroupLabel if g not in TWO_BY_TWO_LABELS]
SECONDS_PER_INPUT = 2.0


def _paths(doc, prefix=()):
    """Every place in ``doc`` a value sits: dict keys and list indices."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _junk(data):
    """A fresh copy of one junk value, so later edits cannot change it."""
    return copy.deepcopy(data.draw(st.sampled_from(READABLE) | st.sampled_from(UNREADABLE)))


def _edit(doc, data):
    """``doc`` with one place replaced by junk or deleted; a document with
    no place left is replaced whole."""
    paths = list(_paths(doc))
    if not paths:
        return _junk(data)
    *parent_path, key = data.draw(st.sampled_from(paths))
    parent = doc
    for step in parent_path:
        parent = parent[step]
    if data.draw(st.integers(0, 3)) == 0:
        del parent[key]
    else:
        parent[key] = _junk(data)
    return doc


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_edited_golden_files_exit_cleanly(data):
    path = data.draw(st.sampled_from(WITNESSES))
    p = path.name.split("_")[1][1:]
    cert = json.loads(path.read_text())
    command = data.draw(st.sampled_from(COMMANDS))
    edit_cert = command == "verify" or (command == "verify --target" and data.draw(st.booleans()))
    doc = copy.deepcopy(cert if edit_cert else cert["target"])
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _edit(doc, data)

    with tempfile.TemporaryDirectory() as tmp:
        edited, target = Path(tmp) / "edited.json", Path(tmp) / "target.json"
        edited.write_text(json.dumps(doc))
        target.write_text(json.dumps(cert["target"]))
        if command == "verify":
            argv = ["verify", "--cert", str(edited)]
        elif command == "verify --target":
            files = (edited, target) if edit_cert else (path, edited)
            argv = ["verify", "--cert", str(files[0]), "--target", str(files[1])]
        elif command == "member":
            group = data.draw(st.sampled_from(FOUR_BY_FOUR))
            argv = ["member", "--group", group, "--p", p, "--in", str(edited)]
        else:
            argv = ["decompose", "--p", p, "--in", str(edited), "--out", str(Path(tmp) / "w.json")]
        start = time.perf_counter()
        code, err = _run(argv)
        took = time.perf_counter() - start

    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, err
    assert took < SECONDS_PER_INPUT, (argv, took)
