"""Every evaluator's results on the pinned corpus (tests/pin_corpus.py),
compared with tests/data/pinned.json exactly."""

import json

from pin_corpus import PINNED, build, dumps


def leaves(obj, path=()):
    """(path, value) of every scalar in a JSON value, list positions and
    layer numbers included in the path; an argmax is one value."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from leaves(value, path + (key,))
    elif isinstance(obj, list) and path[-1:] != ("argmax",):
        for k, value in enumerate(obj):
            yield from leaves(value, path + (k,))
    else:
        yield path, obj


def quantity(path) -> str:
    """The quantity a leaf holds: its path without case positions, list
    positions and layer numbers, e.g. tables/oracle/leakage."""
    return "/".join(p for p in path if isinstance(p, str) and not p.isdigit())


def difference(want, got) -> float | None:
    """|want - got| for two float.hex texts or two counts, None for values
    of any other kind (a digest, a witness, an argmax)."""
    if all(isinstance(v, str) and v.lstrip("-").startswith(("0x", "inf", "nan"))
           for v in (want, got)):
        return abs(float.fromhex(want) - float.fromhex(got))
    if type(want) is int and type(got) is int:
        return float(abs(want - got))
    return None


def mismatches(want: dict, got: dict) -> dict[str, tuple[int, float | None]]:
    """Per quantity, the number of leaves that differ, a leaf missing on one
    side included, and the largest difference of those that are numbers."""
    a, b = dict(leaves(want)), dict(leaves(got))
    out: dict[str, tuple[int, float | None]] = {}
    for path in a.keys() | b.keys():
        x, y = a.get(path, KeyError), b.get(path, KeyError)
        if x == y:
            continue
        count, worst = out.get(quantity(path), (0, None))
        d = difference(x, y)
        if d is not None:
            worst = d if worst is None else max(worst, d)
        out[quantity(path)] = (count + 1, worst)
    return out


def test_corpus_unchanged():
    text = PINNED.read_text(encoding="utf-8")
    got = build()
    if dumps(got) == text:
        return
    lines = [f"{q}: {count} differ" + ("" if worst is None else f", largest difference {worst!r}")
             for q, (count, worst) in sorted(mismatches(json.loads(text), got).items())]
    raise AssertionError("results differ from tests/data/pinned.json:\n" + "\n".join(lines))


def test_mismatches_report_the_largest_difference():
    want = {"tables": [{"full": {"leakage": (1.0).hex(), "layer_max": {"1": (2.0).hex()},
                                 "argmax": [0, [1]], "node_count": 4, "nodes": "ac"},
                        "oracle": {"kinks": [3, 4], "witness": ["tail", None]}}]}
    got = json.loads(json.dumps(want))
    case = got["tables"][0]
    case["full"]["leakage"] = (1.0 + 2**-52).hex()
    case["full"]["layer_max"]["1"] = (2.5).hex()
    case["full"]["argmax"] = [0, [2]]
    case["oracle"]["kinks"] = [3, 6]
    case["oracle"]["witness"] = ["interior", None]
    case["full"]["nodes"] = "ab"
    del case["full"]["node_count"]
    assert mismatches(want, got) == {
        "tables/full/leakage": (1, 2**-52),
        "tables/full/layer_max": (1, 0.5),
        "tables/full/argmax": (1, None),
        "tables/oracle/kinks": (1, 2.0),
        "tables/oracle/witness": (1, None),
        "tables/full/node_count": (1, None),
        "tables/full/nodes": (1, None),
    }
