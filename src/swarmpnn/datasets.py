"""Benchmark dataset registry, canonical CSV ingestion and stratified
splitting.

Canonical layout: UTF-8, comma-separated, one header row, label column named
``class``. :func:`load_benchmark` materializes a dataset into a cache
directory from, in order of preference, an already cached file, a copy
bundled with the package (``data/<name>.csv`` beside this module; only iris
is bundled), a locally installed provider (scikit-learn ships iris, cancer
and wine) or a download from the public repositories. The network stack
(``urllib.request``, which loads ``ssl``, ``http.client`` and ``email``)
is imported only when a download is attempted, so a process that trains on
cached or bundled data never loads it. One delimited-text reader reads raw
downloads, by each descriptor's ``layout``, and canonical CSVs: adding a
source means one :data:`REGISTRY` entry.

The bundled ``data/iris.csv`` is UCI Iris (Fisher, 1936; CC BY 4.0) in the
UCI ``iris.data`` variant, erratum rows 35 and 38 included, exactly as
:func:`convert_to_canonical` writes it from that file.
"""

from __future__ import annotations

import csv
import os
import shutil
import warnings
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress
from numbers import Real

import numpy as np

from .pnn import Dataset

MISSING_TOKENS = {"", "?", "na", "nan", "null"}

DATA_DIR_ENV = "SWARMPNN_DATA"

BUNDLED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


class DatasetValidationWarning(UserWarning):
    """Loaded data disagrees with the registry's expected shape."""


class FetchError(RuntimeError):
    pass


def default_data_dir() -> str:
    return os.environ.get(DATA_DIR_ENV) or os.path.join(os.getcwd(), "data")


@dataclass(frozen=True)
class SplitSpec:
    test_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.test_fraction, Real)
                and 0.0 < self.test_fraction < 1.0):
            raise ValueError("test_fraction must be a number in (0, 1), "
                             f"got {self.test_fraction!r}")


@dataclass(frozen=True)
class DatasetDescriptor:
    """Registry entry: where a benchmark comes from and what to expect.

    ``expected_*`` values mirror the published benchmark table; mismatches on
    load produce :class:`DatasetValidationWarning`, not errors, because a few
    of the published counts disagree with the canonical repository files.

    ``layout`` maps the raw source file to (features, labels); None: no
    converter. ``sep`` is the field separator (default ","; None: any
    whitespace), ``header`` marks a first row of column names, ``label`` is
    the label column (default -1), ``drop`` lists the columns left out of the
    features, ``coded`` the categorical ones, coded in place by first
    appearance, and ``min_class`` is the smallest class kept. A column is an
    index (negative counts from the end) or, in a file with a header, a name.
    """

    name: str
    source_kind: str              # "uci" | "pmlb" | "kaggle"
    source_ref: str               # archive id/slug or dataset name
    member: str = ""              # file inside a downloaded archive
    expected_features: int = 0
    expected_balance: tuple = ()
    sklearn_loader: str = ""      # offline provider, when one exists
    notes: str = ""
    layout: dict | None = field(default=None, hash=False)

    @property
    def expected_rows(self) -> int:
        return sum(self.expected_balance)

    @property
    def expected_classes(self) -> int:
        return len(self.expected_balance)

    def url(self) -> str:
        if self.source_kind == "uci":
            return f"https://archive.ics.uci.edu/static/public/{self.source_ref}.zip"
        if self.source_kind == "pmlb":
            return ("https://github.com/EpistasisLab/pmlb/raw/master/datasets/"
                    f"{self.source_ref}/{self.source_ref}.tsv.gz")
        if self.source_kind == "kaggle":
            raise FetchError(
                f"{self.name}: hosted on kaggle ({self.source_ref}); download "
                f"{self.member} with your kaggle credentials and convert it "
                f"with convert_to_canonical")
        raise FetchError(f"{self.name}: no direct URL for {self.source_kind}")


_PMLB = {"sep": "\t", "header": True, "label": "target"}


def _read_table(lines, layout: dict):
    """(feature names, features, labels, dropped) of ``lines`` laid out as
    ``layout``; labels stay strings. Blank lines are skipped; a ragged row, a
    non-numeric feature or a table with no usable row is an error; rows
    holding a missing token are dropped: ``dropped`` lists their indices,
    counted after the header."""
    sep = layout.get("sep", ",")
    lines = (ln if ln.strip() else "" for ln in lines)
    records = csv.reader(lines, delimiter=sep) if sep else map(str.split, lines)
    rows = ([t.strip() for t in r] for r in records)
    header = next((r for r in rows if r), None)
    if header is None:
        raise ValueError("empty file")
    if not layout.get("header"):
        rows, header = chain([header], rows), list(range(len(header)))
    width = len(header)

    def column(c):
        if isinstance(c, str):
            if c not in header:
                raise ValueError(f"no {c!r} column in header")
            return header.index(c)
        return range(width)[c]

    label = column(layout.get("label", -1))
    left_out = [label] + [column(c) for c in layout.get("drop", ())]
    codes = {column(c): {} for c in layout.get("coded", ())}
    cols = [c for c in range(width) if c in codes or c not in left_out]
    features, labels, dropped = [], [], []
    for index, row in enumerate(rows):
        if not row:
            continue
        if len(row) != width:
            raise ValueError(f"row {index} has {len(row)} fields, "
                             f"expected {width}")
        if any(t.lower() in MISSING_TOKENS for t in row):
            dropped.append(index)
            continue
        for c, seen in codes.items():
            row[c] = seen.setdefault(row[c], len(seen))
        values = []
        for c in cols:
            try:
                values.append(float(row[c]))
            except ValueError:
                raise ValueError(f"non-numeric value {row[c]!r} in row "
                                 f"{index}, column {header[c]!r}") from None
        features.append(values)
        labels.append(row[label])
    counts = Counter(labels)
    kept = [counts[y] >= layout.get("min_class", 1) for y in labels]
    if not any(kept):
        raise ValueError("no usable data rows")
    return ([header[c] for c in cols], list(compress(features, kept)),
            list(compress(labels, kept)), dropped)


REGISTRY = {d.name: d for d in [
    DatasetDescriptor("iris", "uci", "53/iris", "iris.data", 4, (50, 50, 50),
                      sklearn_loader="load_iris", layout={}),
    DatasetDescriptor("ghost", "kaggle", "ghouls-goblins-and-ghosts-boo",
                      "train.csv", 5, (129, 125, 117),
                      notes="competition data; requires kaggle credentials",
                      layout={"header": True, "label": "type",
                              "drop": ("id",), "coded": ("color",)}),
    DatasetDescriptor("cancer", "uci", "17/breast+cancer+wisconsin+diagnostic",
                      "wdbc.data", 30, (357, 212),
                      sklearn_loader="load_breast_cancer",
                      layout={"label": 1, "drop": (0,)}),
    DatasetDescriptor("wine", "uci", "109/wine", "wine.data", 13, (71, 59, 48),
                      sklearn_loader="load_wine", layout={"label": 0}),
    DatasetDescriptor("ilpd", "uci",
                      "225/ilpd+indian+liver+patient+dataset",
                      "Indian Liver Patient Dataset (ILPD).csv",
                      10, (414, 165),
                      notes="rows with missing ratio values are dropped",
                      layout={"coded": (1,)}),
    DatasetDescriptor("glass", "uci", "42/glass+identification", "glass.data",
                      9, (76, 70, 29, 17, 13, 9), layout={"drop": (0,)}),
    DatasetDescriptor("parkinson", "uci", "174/parkinsons", "parkinsons.data",
                      22, (147, 48),
                      layout={"header": True, "label": "status", "drop": (0,)}),
    DatasetDescriptor("ecoli", "uci", "39/ecoli", "ecoli.data",
                      7, (143, 77, 52, 35, 20, 5),
                      notes="classes with fewer than five members dropped",
                      layout={"sep": None, "drop": (0,), "min_class": 5}),
    DatasetDescriptor("banknote", "uci", "267/banknote+authentication",
                      "data_banknote_authentication.txt", 4, (762, 610),
                      layout={}),
    DatasetDescriptor("heart", "uci", "45/heart+disease",
                      "processed.cleveland.data", 14, (164, 55, 36, 35, 13),
                      notes="published counts include rows with missing values",
                      layout={}),
    DatasetDescriptor("climate", "uci",
                      "252/climate+model+simulation+crashes",
                      "pop_failures.dat", 21, (494, 46),
                      layout={"sep": None, "header": True}),
    DatasetDescriptor("blood", "uci", "176/blood+transfusion+service+center",
                      "transfusion.data", 5, (570, 178),
                      layout={"header": True}),
    DatasetDescriptor("thyroid", "uci", "102/thyroid+disease",
                      "new-thyroid.data", 6, (150, 35, 30),
                      layout={"label": 0}),
    DatasetDescriptor("monks", "pmlb", "monk2", "", 7, (229, 186),
                      notes="published row count matches no public variant",
                      layout=_PMLB),
    DatasetDescriptor("vehicle", "pmlb", "vehicle", "", 19,
                      (218, 217, 212, 199), layout=_PMLB),
    DatasetDescriptor("pima", "pmlb", "pima", "", 9, (500, 268), layout=_PMLB),
]}


def write_canonical_csv(path, features, labels, feature_names=None) -> None:
    features = np.asarray(features, dtype=np.float64)
    names = feature_names or [f"f{i}" for i in range(features.shape[1])]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(names) + ["class"])
        for row, label in zip(features, labels):
            writer.writerow([repr(float(v)) for v in row] + [str(label)])


def load_csv(path, descriptor: DatasetDescriptor | None = None) -> Dataset:
    """Load a canonical CSV into a :class:`Dataset`.

    Labels are encoded ``0..G-1`` in order of first appearance. Rows with
    missing values are dropped with a warning naming their indices;
    non-numeric feature tokens are an error. A file that disagrees with
    ``descriptor`` loads with a warning.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            names, features, labels, dropped = _read_table(
                fh, {"header": True, "label": "class"})
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    codes = {}
    encoded = [codes.setdefault(label, len(codes)) for label in labels]
    ds = Dataset(np.array(features), encoded, feature_names=names,
                 class_names=list(codes))
    if dropped:
        warnings.warn(f"{path}: dropped rows with missing values: {dropped}",
                      DatasetValidationWarning, stacklevel=2)
    if descriptor is not None:
        _validate(ds, descriptor, path)
    return ds


def _validate(ds: Dataset, d: DatasetDescriptor, path) -> None:
    problems = []
    if d.expected_rows and ds.n_samples != d.expected_rows:
        problems.append(f"rows {ds.n_samples} != expected {d.expected_rows}")
    if d.expected_features and ds.n_features != d.expected_features:
        problems.append(
            f"features {ds.n_features} != expected {d.expected_features}")
    if d.expected_classes and ds.n_classes != d.expected_classes:
        problems.append(
            f"classes {ds.n_classes} != expected {d.expected_classes}")
    if d.expected_balance:
        got = tuple(sorted(ds.class_counts.tolist(), reverse=True))
        want = tuple(sorted(d.expected_balance, reverse=True))
        if got != want:
            problems.append(f"class balance {got} != expected {want}")
    if problems:
        warnings.warn(f"{d.name} ({path}): " + "; ".join(problems),
                      DatasetValidationWarning, stacklevel=3)


def zscore_standardize(train: Dataset, test: Dataset | None = None):
    """Standardize features to zero mean and unit variance.

    Statistics come from the training split only and are applied to both
    splits; constant features are centered but not scaled. Off by default:
    the benchmark protocol runs on raw features.
    """
    mean = train.features.mean(axis=0)
    std = train.features.std(axis=0)
    std = np.where(std > 0, std, 1.0)

    def apply(ds):
        return Dataset((ds.features - mean) / std, ds.labels,
                       n_classes=ds.n_classes, feature_names=ds.feature_names,
                       class_names=ds.class_names)

    return apply(train), (apply(test) if test is not None else None)


def stratified_split(ds: Dataset, spec: SplitSpec):
    """Split into (train, test) preserving class proportions.

    Per-class test counts follow the largest-remainder rule towards a test
    size of ``round(P * test_fraction)``, but every class keeps at least one
    training sample, and that cap wins: a seat a capped class cannot take
    goes to the next class with room, and when none has room the test split
    is smaller (two classes of two rows at fraction 0.9 give two test rows,
    not four). Classes with fewer than two samples are an error, as is a
    test size that rounds to zero.
    """
    if np.any(ds.class_counts < 2):
        raise ValueError("stratified split needs >= 2 samples per class")
    rng = np.random.default_rng(spec.seed)
    total_test = int(round(ds.n_samples * spec.test_fraction))
    if total_test < 1:
        raise ValueError(f"test_fraction {spec.test_fraction} of "
                         f"{ds.n_samples} rows leaves an empty test split")
    raw = ds.class_counts * spec.test_fraction
    base = np.floor(raw).astype(int)
    base = np.minimum(base, ds.class_counts - 1)
    remainder = raw - base
    # hand out the leftover seats by descending remainder, class index as the
    # deterministic tie-break
    order = sorted(range(ds.n_classes), key=lambda j: (-remainder[j], j))
    short = total_test - int(base.sum())
    counts = base.copy()
    for j in order:
        if short <= 0:
            break
        if counts[j] < ds.class_counts[j] - 1:
            counts[j] += 1
            short -= 1
    test_idx = []
    train_idx = []
    for j in range(ds.n_classes):
        members = np.flatnonzero(ds.labels == j)
        members = members[rng.permutation(len(members))]
        test_idx.extend(members[:counts[j]].tolist())
        train_idx.extend(members[counts[j]:].tolist())
    return ds.subset(sorted(train_idx)), ds.subset(sorted(test_idx))


# ---------------------------------------------------------------------------
# Fetching
# ---------------------------------------------------------------------------

def _default_opener(url: str) -> bytes:
    import urllib.request

    with urllib.request.urlopen(url, timeout=60) as resp:
        return resp.read()


def fetch_raw(descriptor: DatasetDescriptor, opener=None) -> bytes:
    """Download the raw source file for one dataset."""
    import io
    import zipfile

    url = descriptor.url()
    opener = opener or _default_opener
    try:
        payload = opener(url)
    except Exception as exc:
        raise FetchError(f"{descriptor.name}: download failed: {exc}") from exc
    if descriptor.source_kind == "uci":
        try:
            with zipfile.ZipFile(io.BytesIO(payload)) as archive:
                return archive.read(descriptor.member)
        except (zipfile.BadZipFile, KeyError) as exc:
            raise FetchError(
                f"{descriptor.name}: bad archive from {url}: {exc}") from exc
    return payload


def convert_to_canonical(descriptor: DatasetDescriptor, raw: bytes,
                         out_path) -> None:
    layout = descriptor.layout
    if layout is None:
        raise FetchError(f"no converter for {descriptor.name}")
    try:
        if descriptor.source_kind == "pmlb":
            import gzip

            text = gzip.decompress(raw).decode("utf-8")
        else:
            text = raw.decode("utf-8", "replace")
        _, features, labels, _ = _read_table(text.splitlines(), layout)
        write_canonical_csv(out_path, features, labels)
    except Exception as exc:
        raise FetchError(
            f"{descriptor.name}: raw file conversion failed: {exc}") from exc


def _sklearn_canonical(descriptor: DatasetDescriptor, out_path) -> bool:
    if not descriptor.sklearn_loader:
        return False
    try:
        from sklearn import datasets as sk
    except ImportError:
        return False
    bunch = getattr(sk, descriptor.sklearn_loader)()
    labels = [str(bunch.target_names[t]) for t in bunch.target]
    write_canonical_csv(out_path, bunch.data, labels,
                        feature_names=[str(n).replace(",", " ")
                                       for n in bunch.feature_names])
    return True


def dataset_path(name: str, data_dir=None) -> str:
    """Where the canonical CSV of registry dataset ``name`` is cached."""
    return os.path.join(data_dir or default_data_dir(), f"{name}.csv")


def load_benchmark(name: str, data_dir=None, opener=None) -> Dataset:
    """Load registry dataset ``name``, with validation warnings.

    Its canonical CSV is cached at :func:`dataset_path`. The sources, in
    order: the cached copy, the bundled copy, scikit-learn's copy, then a
    download through ``opener``. The first copy that parses is used, and
    each is parsed once; a download that does not parse is an error.
    """
    if name not in REGISTRY:
        raise KeyError(f"unknown dataset {name!r}; known: {sorted(REGISTRY)}")
    descriptor = REGISTRY[name]
    path = dataset_path(name, data_dir)
    os.makedirs(os.path.dirname(path), exist_ok=True)

    def loaded():
        try:
            return load_csv(path, descriptor)
        except (OSError, ValueError):
            return None

    ds = loaded()
    bundled = os.path.join(BUNDLED_DIR, f"{name}.csv")
    if ds is None and os.path.exists(bundled):
        shutil.copyfile(bundled, path)
        ds = loaded()
    if ds is None and _sklearn_canonical(descriptor, path):
        ds = loaded()
    if ds is None:
        convert_to_canonical(descriptor, fetch_raw(descriptor, opener), path)
        ds = loaded()
        if ds is None:
            raise FetchError(f"{name}: fetched file failed to parse")
    return ds
