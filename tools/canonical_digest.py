"""SHA-256 over the outcomes of converting and loading a fixed corpus of
generated raw dataset files.

    python tools/canonical_digest.py

For the raw-file layout of every registry dataset in ``swarmpnn.datasets``
the script generates a seeded set of small files in three kinds:

- ``regular`` files follow the layout. They hold rows with missing tokens,
  blank and whitespace-only lines (also before the first row), LF, CRLF or
  CR line endings, and spaces around fields;
- ``edge-empty`` files (tab-separated layouts only) are regular files with a
  few rows whose first or last field is empty;
- ``unusable`` files are empty, header-only, all-missing or ragged.

Each file is converted with ``convert_to_canonical`` and each CSV that
writes is loaded back with ``load_csv``. Three more kinds are canonical CSVs
loaded directly: ``canonical`` files (missing tokens, empty lines, all three
line endings), ``canonical-blank`` files (a leading empty line or a
whitespace-only line) and ``canonical-unusable`` files (empty, header-only,
all-missing, ragged, non-numeric or without a ``class`` column).

A file's outcome is the exception type of a rejected conversion, or the
SHA-256 of the written bytes; for a load it is the features, labels, class
and feature names and warning text, or the exception type and message. The
script prints per-layout counts, one SHA-256 per kind and one over every
outcome. It imports the ``swarmpnn`` of its own checkout, so running a copy
of it in a second checkout tells which kinds of file the two convert or load
differently.
"""

import gzip
import hashlib
import json
import random
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import swarmpnn  # noqa: E402
from swarmpnn.datasets import (  # noqa: E402
    REGISTRY,
    convert_to_canonical,
    load_csv,
)

FILES_PER_KIND = 24
ENDINGS = ("\n", "\r\n", "\r")
MISSING = ("", "?", "NA", "nan", "NULL", "na", " ? ")
CLASSES = (("a", "b", "c", "dd"), ("0", "1", "2", "3"),
           ("cp", "im", "pp", "imL"))
CATEGORIES = ("red", "green", "blue", "Male", "Female")


def number(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return str(rng.randint(-50, 500))
    if kind == 1:
        return f"{rng.uniform(-100, 100):.{rng.randint(1, 5)}f}"
    if kind == 2:
        return f"{rng.uniform(0, 1):.3e}"
    return repr(rng.uniform(0, 10))


def roles(layout, rng):
    """(header or None, role of every column) for one generated file."""
    width = rng.randint(4, 7)
    role = ["feature"] * width
    named = {}
    refs = [("label", layout.get("label", -1))]
    refs += [("drop", c) for c in layout.get("drop", ())]
    refs += [("coded", c) for c in layout.get("coded", ())]
    for what, ref in refs:
        if isinstance(ref, int):
            role[ref] = what
    free = [i for i in range(width) if role[i] == "feature"]
    for (what, ref), pos in zip([r for r in refs if isinstance(r[1], str)],
                                rng.sample(free, len(free))):
        role[pos] = what
        named[pos] = ref
    if not layout.get("header"):
        return None, role
    return [named.get(i, f"x{i}") for i in range(width)], role


def token(what, rng, k):
    if what == "drop":
        return rng.choice((f"id{k}", str(1000 + k), f"AB{k}_ECOLI"))
    if what == "coded":
        return rng.choice(CATEGORIES)
    return number(rng)


def data_rows(layout, role, rng):
    """Token rows; at least ``min_class`` of the first class stay complete."""
    classes = rng.choice(CLASSES)
    keep = max(layout.get("min_class", 1), 2)
    labels = [classes[0]] * (keep + rng.randint(0, 3))
    labels += [rng.choice(classes[1:3]) for _ in range(rng.randint(2, 8))]
    labels += [classes[3]] * rng.randint(0, 2)
    rng.shuffle(labels)
    rows = [[y if what == "label" else token(what, rng, k) for what in role]
            for k, y in enumerate(labels)]
    protected = [k for k, y in enumerate(labels) if y == classes[0]][:keep]
    return rows, [k for k in range(len(rows)) if k not in protected]


def missing(layout, rng, edge):
    """A missing token the layout can hold: runs of whitespace cannot hold an
    empty field, and an empty edge field of a tab file is its own kind."""
    sep = layout.get("sep", ",")
    if sep is None or (sep == "\t" and edge):
        return rng.choice([t for t in MISSING if t.strip()])
    return rng.choice(MISSING)


def render(layout, header, rows, rng):
    sep = layout.get("sep", ",")
    lines = []
    for row in ([header] if header else []) + rows:
        if sep is None:
            line = ""
            for t in row:
                line += t + rng.choice((" ", "  ", "\t", " \t "))
            lines.append(rng.choice(("", " ")) + line.rstrip(" \t"))
        else:
            padded = [t if not t or rng.random() < 0.8
                      else rng.choice((" ", "")) + t + rng.choice((" ", ""))
                      for t in row]
            lines.append(sep.join(padded))
    for _ in range(rng.randint(1, 3)):
        lines.insert(rng.randint(0, len(lines)), rng.choice(("", "   ", "\t")))
    ending = rng.choice(ENDINGS)
    return ending.join(lines) + rng.choice((ending, ""))


def raw_file(name, kind, rng):
    layout = REGISTRY[name].layout
    header, role = roles(layout, rng)
    rows, open_rows = data_rows(layout, role, rng)
    for k in rng.sample(open_rows, min(len(open_rows), rng.randint(0, 3))):
        col = rng.randrange(len(role))
        rows[k][col] = missing(layout, rng, col in (0, len(role) - 1))
    variant = kind
    if kind == "edge-empty":
        for k in rng.sample(range(len(rows)), rng.randint(1, 3)):
            rows[k][rng.choice((0, -1))] = rng.choice(("", " "))
    elif kind == "unusable":
        variant = rng.choice(("empty", "header-only", "all-missing", "ragged"))
        if variant == "empty":
            return render(layout, None, [], rng), variant
        if variant == "header-only":
            rows = []
        elif variant == "all-missing":
            for row in rows:
                row[rng.randrange(len(row))] = missing(layout, rng, True)
        else:
            k = rng.randrange(len(rows))
            rows[k] = rows[k][:-1] if rng.random() < 0.5 else rows[k] + ["7"]
    return render(layout, header, rows, rng), variant


def canonical_file(kind, rng):
    width = rng.randint(2, 5)
    label = rng.randrange(width)
    header = [("class" if i == label else f"f{i}") for i in range(width)]
    rows = [[rng.choice(CLASSES[0]) if i == label else number(rng)
             for i in range(width)] for _ in range(rng.randint(3, 10))]
    for k in rng.sample(range(len(rows)), rng.randint(0, 2)):
        rows[k][rng.randrange(width)] = rng.choice(MISSING)
    lines = [",".join(row) for row in [header] + rows]
    for _ in range(rng.randint(0, 2)):
        lines.insert(rng.randint(1, len(lines)), "")
    variant = kind
    if kind == "canonical-blank":
        if rng.random() < 0.5:
            lines.insert(0, "")
        else:
            lines.insert(rng.randint(1, len(lines)), rng.choice(("  ", "\t")))
    elif kind == "canonical-unusable":
        variant = rng.choice(("empty", "header-only", "all-missing", "ragged",
                              "non-numeric", "no-class"))
        if variant == "empty":
            lines = []
        elif variant == "header-only":
            lines = lines[:1]
        elif variant == "all-missing":
            lines = lines[:1] + [",".join(["?"] * width)] * 3
        elif variant == "ragged":
            lines.append(",".join(["1"] * (width + 1)))
        elif variant == "non-numeric":
            lines.append(",".join(["x" if i != label else "a"
                                   for i in range(width)]))
        else:
            lines[0] = lines[0].replace("class", "label")
    ending = rng.choice(ENDINGS)
    return ending.join(lines) + rng.choice((ending, "")), variant


def load_outcome(path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            ds = load_csv(str(path))
        except Exception as exc:
            return {"error": type(exc).__name__,
                    "message": str(exc).replace(str(path), "<path>")}
    return {"features": hashlib.sha256(ds.features.tobytes()).hexdigest(),
            "shape": list(ds.features.shape),
            "labels": ds.labels.tolist(),
            "class_names": list(ds.class_names),
            "feature_names": list(ds.feature_names),
            "warnings": [str(w.message).replace(str(path), "<path>")
                         for w in caught]}


def outcomes(workdir):
    """(layout, kind, variant, accepted, outcome) of every corpus file;
    a raw file is accepted when it converts, a canonical one when it loads."""
    for name in sorted(REGISTRY):
        descriptor = REGISTRY[name]
        kinds = ["regular", "unusable"]
        if descriptor.layout.get("sep") == "\t":
            kinds.insert(1, "edge-empty")
        for kind in kinds:
            for k in range(FILES_PER_KIND):
                rng = random.Random(f"{name}/{kind}/{k}")
                text, variant = raw_file(name, kind, rng)
                raw = text.encode("utf-8")
                if descriptor.source_kind == "pmlb":
                    raw = gzip.compress(raw, mtime=0)
                out = workdir / f"{name}-{kind}-{k}.csv"
                try:
                    convert_to_canonical(descriptor, raw, out)
                except Exception as exc:
                    yield name, kind, variant, False, {
                        "rejected": type(exc).__name__}
                    continue
                yield name, kind, variant, True, {
                    "written": hashlib.sha256(out.read_bytes()).hexdigest(),
                    "load": load_outcome(out)}
    for kind in ("canonical", "canonical-blank", "canonical-unusable"):
        for k in range(FILES_PER_KIND):
            text, variant = canonical_file(kind, random.Random(f"{kind}/{k}"))
            path = workdir / f"{kind}-{k}.csv"
            path.write_bytes(text.encode("utf-8"))
            outcome = load_outcome(path)
            yield "canonical", kind, variant, "error" not in outcome, outcome


def main() -> int:
    if Path(swarmpnn.__file__).resolve().parent.parent != SRC:
        print(f"swarmpnn imported from {swarmpnn.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    counts = Counter()
    total = hashlib.sha256()
    by_kind = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, kind, variant, accepted, outcome in outcomes(Path(tmp)):
            counts[name, "files"] += 1
            counts[name, "ok" if accepted else "rejected"] += 1
            record = json.dumps([name, kind, variant, outcome],
                                sort_keys=True).encode() + b"\n"
            total.update(record)
            by_kind.setdefault(kind, [0, hashlib.sha256()])
            by_kind[kind][0] += 1
            by_kind[kind][1].update(record)
    print(f"{'layout':<12}{'files':>7}{'converted':>11}{'rejected':>10}")
    for name in sorted({n for n, _ in counts}):
        print(f"{name:<12}{counts[name, 'files']:>7}{counts[name, 'ok']:>11}"
              f"{counts[name, 'rejected']:>10}")
    print("(canonical: loaded by load_csv, not converted)")
    for kind, (files, digest) in by_kind.items():
        print(f"{kind:<19}{files:>5}  {digest.hexdigest()}")
    files = sum(files for files, _ in by_kind.values())
    print(f"{total.hexdigest()}  ({files} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
