"""Committed references for outputs that performance changes must leave unchanged.

Each reference is a SHA-256 over formatted results: of seeded inputs, drawn
here with ``random.Random`` so that no other module's generator can move
them, of the ``verify all --max-degree 3 --json`` report without its wall
time, and of the stdout of fixed CLI calls.  A change that alters one of
these outputs on purpose updates the digest and says why.  The digests do
not depend on ``PYTHONHASHSEED``: every formatted value is sorted or built
in a fixed order, and pytest runs under a random hash seed unless one is
set.
"""

import hashlib
import json
import random

import pytest

import skeinlab.diagram as D
from skeinlab.cli import EXIT_PASS, main
from skeinlab.diagram import SliceWord, StatedWord, memo_clear, reduce, resolve_crossings
from skeinlab.report import validate_report_dict
from skeinlab.scalar import format_scalar
from skeinlab.syntax import format_element

RESOLVE_DIGEST = "a0d6c3166e2226c6364a06e24fc57b777f354304f30d6d7e3644205356f44e15"
BRAID_REDUCE_DIGEST = "f6860945c28cb7519c753e7b933b146ec44135a51dc9525a18e2fb5065824fd5"
VERIFY_ALL_DIGEST = "c96712d816ee37ea66e2e008113e1c6034396eaf0f65e5071ac6cd10624dcb4e"
CLI_DIGEST = "c3ab6a5ba9391118a64ff17aad24d48df68611ea0f3609e0da6df72bf2bd1ce9"

#: CLI calls whose stdout is pinned: reductions of stated braids and of a
#: capped tangle, brackets of closed diagrams, and bigon products.
CLI_CALLS = [
    ("reduce", "tangle(2){x0} west=+- east=+-"),
    ("reduce", "tangle(3){x0;xb1;x0} west=+-+ east=-++"),
    ("reduce", "tangle(4){x0;x1;x2;xb0;x1;xb2;x0} west=+-+- east=-+-+"),
    ("reduce", "tangle(2){cup1;x0;x2;cap1} west=+- east=-+"),
    ("bracket", "tangle(0){cup0;x0;cap0}"),
    ("bracket", "tangle(0){cup0;cup1;x0;x0;x0;cap1;cap0}"),
    ("bracket", "tangle(0){cup0;cup2;x1;xb1;x1;xb1;cap2;cap0}"),
    ("mul", "a", "d"),
    ("mul", "b", "c"),
    ("mul", "(1+s)*a + q*d", "b^2 - c"),
]


def _random_word(rng, max_rows, max_slices):
    """A legal word of cuts of at most ``max_rows`` rows, drawn from cups,
    caps and both crossings."""
    rows = west = rng.randrange(max_rows + 1)
    slices = []
    for _ in range(rng.randint(0, max_slices)):
        kinds = ["cup"] if rows + 2 <= max_rows else []
        if rows >= 2:
            kinds += ["cap", "x", "xb", "x", "xb"]
        if not kinds:
            break
        kind = rng.choice(kinds)
        i = rng.randrange(rows + 1) if kind == "cup" else rng.randrange(rows - 1)
        rows += {"cup": 2, "cap": -2}.get(kind, 0)
        slices.append((kind, i))
    return SliceWord(west, tuple(slices))


def _resolve_words():
    rng = random.Random(3101)
    return [_random_word(rng, rows, 120) for rows in range(1, 7) for _ in range(200)]


def _endpoint_arcs(n_east, partners):
    """A partner tuple as the sorted endpoint arcs, (("e" | "w", position),
    ...) pairs, that ``resolve_crossings`` returned when this digest was made."""
    n_west = len(partners) - n_east
    point = lambda i: ("w", i) if i < n_west else ("e", i - n_west)
    return tuple(sorted(tuple(sorted((point(i), point(j)))) for i, j in enumerate(partners) if i < j))


def _braid_words():
    """4-strand braid words of 6-14 crossings, four per crossing count, their
    rows cycling through 0, 1, 2 from a seeded start in a seeded direction,
    each at three seeded state pairs."""
    rng = random.Random(1)
    out = []
    for crossings in range(6, 15):
        for _ in range(4):
            start, step = rng.randrange(3), rng.choice((1, -1))
            word = SliceWord(4, tuple((rng.choice(("x", "xb")), (start + step * k) % 3) for k in range(crossings)))
            for _ in range(3):
                west, east = (tuple(rng.choice((1, -1)) for _ in range(4)) for _ in range(2))
                out.append(StatedWord(word, west, east))
    return out


@pytest.fixture
def cold():
    memo_clear()
    yield
    memo_clear()


def test_resolve_crossings_output_is_unchanged(cold):
    words = _resolve_words()
    assert {w.width for w in words} >= set(range(1, 7))
    assert sum(w.crossing_count() > 2 * D._WINDOW for w in words) >= 100
    digest = hashlib.sha256()
    for word in words:
        digest.update(f"{word.west_arity}|{word.slices}\n".encode())
        terms = [(n_east, _endpoint_arcs(n_east, p), coeff) for n_east, p, coeff in resolve_crossings(word)]
        for n_east, arcs, coeff in sorted(terms, key=lambda t: t[:2]):
            digest.update(f"{n_east}|{arcs}|{format_scalar(coeff)}\n".encode())
    assert digest.hexdigest() == RESOLVE_DIGEST


def test_braid_reduce_output_is_unchanged(cold):
    calls = _braid_words()
    assert len(calls) == 108
    text = "\n".join(format_element(reduce(d)) for d in calls)
    assert hashlib.sha256(text.encode()).hexdigest() == BRAID_REDUCE_DIGEST


def test_verify_all_report_is_unchanged(capsys, cold):
    # The report of the benchmark's verify_all workload, but for its wall time.
    assert main(["verify", "all", "--max-degree", "3", "--json"]) == EXIT_PASS
    data = json.loads(capsys.readouterr().out)
    validate_report_dict(data)
    assert data["totals"] == {"pass": 46, "fail": 0, "total": 46}
    del data["wall_time"]
    assert hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest() == VERIFY_ALL_DIGEST


def test_cli_output_is_unchanged(capsys, cold):
    text = []
    for argv in CLI_CALLS:
        code = main(list(argv))
        text.append(f"{argv}|{code}|{capsys.readouterr().out}")
    assert hashlib.sha256("\n".join(text).encode()).hexdigest() == CLI_DIGEST
