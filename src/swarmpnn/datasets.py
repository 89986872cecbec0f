"""Benchmark dataset registry, canonical CSV ingestion and stratified
splitting.

Canonical layout: UTF-8, comma-separated, one header row, label column named
``class``. :func:`ensure_dataset` materializes a dataset into a cache
directory from, in order of preference, an already cached file, a copy
bundled with the package (``data/<name>.csv`` beside this module; only iris
is bundled), a locally installed provider (scikit-learn ships iris, cancer
and wine) or a download from the public repositories.

The bundled ``data/iris.csv`` is UCI Iris (Fisher, 1936; CC BY 4.0) in the
UCI ``iris.data`` variant, erratum rows 35 and 38 included, exactly as
:func:`convert_to_canonical` writes it from that file.
"""

from __future__ import annotations

import csv
import gzip
import io
import os
import shutil
import urllib.request
import warnings
import zipfile
from dataclasses import dataclass

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
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")


@dataclass(frozen=True)
class DatasetDescriptor:
    """Registry entry: where a benchmark comes from and what to expect.

    ``expected_*`` values mirror the published benchmark table; mismatches on
    load produce :class:`DatasetValidationWarning`, not errors, because a few
    of the published counts disagree with the canonical repository files.
    """

    name: str
    source_kind: str              # "uci" | "pmlb" | "kaggle"
    source_ref: str               # archive id/slug or dataset name
    member: str = ""              # file inside a downloaded archive
    expected_rows: int = 0
    expected_features: int = 0
    expected_classes: int = 0
    expected_balance: tuple = ()
    sklearn_loader: str = ""      # offline provider, when one exists
    notes: str = ""

    def url(self) -> str:
        if self.source_kind == "uci":
            return f"https://archive.ics.uci.edu/static/public/{self.source_ref}.zip"
        if self.source_kind == "pmlb":
            return ("https://github.com/EpistasisLab/pmlb/raw/master/datasets/"
                    f"{self.source_ref}/{self.source_ref}.tsv.gz")
        raise FetchError(f"{self.name}: no direct URL for {self.source_kind}")


def _rows_from_text(text, sep=",", skip_header=False):
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        rows.append([t.strip() for t in (line.split(sep) if sep else line.split())])
    return rows[1:] if skip_header else rows


def _code_column(values):
    """Map a categorical column to numeric codes by first appearance."""
    seen = {}
    return [float(seen.setdefault(v, len(seen))) for v in values]


def _drop_missing(rows):
    return [r for r in rows
            if all(t.lower() not in MISSING_TOKENS for t in r)]


# ---------------------------------------------------------------------------
# Raw-file converters: bytes from the source archive -> (features, labels).
# Labels stay strings; the canonical writer and loader handle the encoding.
# ---------------------------------------------------------------------------

def _convert_label_last(raw, sep=",", skip_header=False, drop_first=0):
    rows = _drop_missing(_rows_from_text(raw.decode("utf-8", "replace"),
                                         sep, skip_header))
    feats = [[float(t) for t in r[drop_first:-1]] for r in rows]
    return feats, [r[-1] for r in rows]


def _convert_label_first(raw, sep=","):
    rows = _drop_missing(_rows_from_text(raw.decode("utf-8", "replace"), sep))
    return [[float(t) for t in r[1:]] for r in rows], [r[0] for r in rows]


def _convert_ilpd(raw):
    rows = _drop_missing(_rows_from_text(raw.decode("utf-8", "replace")))
    gender = _code_column([r[1] for r in rows])
    feats = [[float(r[0]), gender[i]] + [float(t) for t in r[2:-1]]
             for i, r in enumerate(rows)]
    return feats, [r[-1] for r in rows]


def _convert_parkinsons(raw):
    rows = _rows_from_text(raw.decode("utf-8", "replace"), skip_header=False)
    header, rows = rows[0], _drop_missing(rows[1:])
    status = header.index("status")
    feats = [[float(t) for i, t in enumerate(r) if i not in (0, status)]
             for r in rows]
    return feats, [r[status] for r in rows]


def _convert_ecoli(raw, min_class_size=5):
    rows = _drop_missing(_rows_from_text(raw.decode("utf-8", "replace"), sep=None))
    labels = [r[-1] for r in rows]
    counts = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1
    keep = [i for i, lab in enumerate(labels) if counts[lab] >= min_class_size]
    feats = [[float(t) for t in rows[i][1:-1]] for i in keep]
    return feats, [labels[i] for i in keep]


def _convert_climate(raw):
    rows = _rows_from_text(raw.decode("utf-8", "replace"), sep=None,
                           skip_header=True)
    rows = _drop_missing(rows)
    return [[float(t) for t in r[:-1]] for r in rows], [r[-1] for r in rows]


def _convert_pmlb(raw):
    text = gzip.decompress(raw).decode("utf-8")
    rows = _rows_from_text(text, sep="\t")
    header, rows = rows[0], _drop_missing(rows[1:])
    target = header.index("target")
    feats = [[float(t) for i, t in enumerate(r) if i != target] for r in rows]
    return feats, [r[target] for r in rows]


def _convert_wdbc(raw):
    rows = _drop_missing(_rows_from_text(raw.decode("utf-8", "replace")))
    return [[float(t) for t in r[2:]] for r in rows], [r[1] for r in rows]


def _convert_ghost(raw):
    rows = _rows_from_text(raw.decode("utf-8", "replace"))
    header, rows = rows[0], _drop_missing(rows[1:])
    color = header.index("color")
    label = header.index("type")
    color_codes = _code_column([r[color] for r in rows])
    feats = [[float(t) for i, t in enumerate(r)
              if i not in (0, color, label)] + [color_codes[k]]
             for k, r in enumerate(rows)]
    return feats, [r[label] for r in rows]


_CONVERTERS = {
    "iris": _convert_label_last,
    "ghost": _convert_ghost,
    "cancer": _convert_wdbc,
    "wine": _convert_label_first,
    "ilpd": _convert_ilpd,
    "glass": lambda raw: _convert_label_last(raw, drop_first=1),
    "parkinson": _convert_parkinsons,
    "ecoli": _convert_ecoli,
    "banknote": _convert_label_last,
    "heart": _convert_label_last,
    "climate": _convert_climate,
    "blood": lambda raw: _convert_label_last(raw, skip_header=True),
    "thyroid": _convert_label_first,
    "monks": _convert_pmlb,
    "vehicle": _convert_pmlb,
    "pima": _convert_pmlb,
}

REGISTRY = {d.name: d for d in [
    DatasetDescriptor("iris", "uci", "53/iris", "iris.data",
                      150, 4, 3, (50, 50, 50), sklearn_loader="load_iris"),
    DatasetDescriptor("ghost", "kaggle", "ghouls-goblins-and-ghosts-boo",
                      "train.csv", 371, 5, 3, (129, 125, 117),
                      notes="competition data; requires kaggle credentials"),
    DatasetDescriptor("cancer", "uci", "17/breast+cancer+wisconsin+diagnostic",
                      "wdbc.data", 569, 30, 2, (357, 212),
                      sklearn_loader="load_breast_cancer"),
    DatasetDescriptor("wine", "uci", "109/wine", "wine.data",
                      178, 13, 3, (71, 59, 48), sklearn_loader="load_wine"),
    DatasetDescriptor("ilpd", "uci",
                      "225/ilpd+indian+liver+patient+dataset",
                      "Indian Liver Patient Dataset (ILPD).csv",
                      579, 10, 2, (414, 165),
                      notes="rows with missing ratio values are dropped"),
    DatasetDescriptor("glass", "uci", "42/glass+identification", "glass.data",
                      214, 9, 6, (76, 70, 29, 17, 13, 9)),
    DatasetDescriptor("parkinson", "uci", "174/parkinsons", "parkinsons.data",
                      195, 22, 2, (147, 48)),
    DatasetDescriptor("ecoli", "uci", "39/ecoli", "ecoli.data",
                      332, 7, 6, (143, 77, 52, 35, 20, 5),
                      notes="classes with fewer than five members dropped"),
    DatasetDescriptor("banknote", "uci", "267/banknote+authentication",
                      "data_banknote_authentication.txt",
                      1372, 4, 2, (762, 610)),
    DatasetDescriptor("heart", "uci", "45/heart+disease",
                      "processed.cleveland.data",
                      303, 14, 5, (164, 55, 36, 35, 13),
                      notes="published counts include rows with missing values"),
    DatasetDescriptor("climate", "uci",
                      "252/climate+model+simulation+crashes",
                      "pop_failures.dat", 540, 21, 2, (494, 46)),
    DatasetDescriptor("blood", "uci", "176/blood+transfusion+service+center",
                      "transfusion.data", 748, 5, 2, (570, 178)),
    DatasetDescriptor("thyroid", "uci", "102/thyroid+disease",
                      "new-thyroid.data", 215, 6, 3, (150, 35, 30)),
    DatasetDescriptor("monks", "pmlb", "monk2", "",
                      415, 7, 2, (229, 186),
                      notes="published row count matches no public variant"),
    DatasetDescriptor("vehicle", "pmlb", "vehicle", "",
                      846, 19, 4, (218, 217, 212, 199)),
    DatasetDescriptor("pima", "pmlb", "pima", "",
                      768, 9, 2, (500, 268)),
]}


def write_canonical_csv(path, features, labels, feature_names=None) -> None:
    features = np.asarray(features, dtype=np.float64)
    names = feature_names or [f"f{i}" for i in range(features.shape[1])]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(names) + ["class"])
        for row, label in zip(features, labels):
            writer.writerow([repr(float(v)) for v in row] + [str(label)])


def load_csv(path, descriptor: DatasetDescriptor | None = None,
             label_column: str = "class") -> Dataset:
    """Load a canonical CSV into a :class:`Dataset`.

    Labels are encoded ``0..G-1`` in order of first appearance. Rows with
    missing values are dropped with a warning naming their indices;
    non-numeric feature tokens are an error.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if label_column not in header:
            raise ValueError(f"{path}: no {label_column!r} column in header")
        label_idx = header.index(label_column)
        features, labels, dropped = [], [], []
        for row_idx, row in enumerate(reader):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}: row {row_idx} has {len(row)} fields, "
                                 f"expected {len(header)}")
            tokens = [t.strip() for t in row]
            if any(t.lower() in MISSING_TOKENS for t in tokens):
                dropped.append(row_idx)
                continue
            values = []
            for col, token in enumerate(tokens):
                if col == label_idx:
                    continue
                try:
                    values.append(float(token))
                except ValueError:
                    raise ValueError(
                        f"{path}: non-numeric value {token!r} in row {row_idx}, "
                        f"column {header[col]!r}") from None
            features.append(values)
            labels.append(tokens[label_idx])
    if dropped:
        warnings.warn(f"{path}: dropped rows with missing values: {dropped}",
                      DatasetValidationWarning, stacklevel=2)
    if not features:
        raise ValueError(f"{path}: no usable data rows")
    class_names = []
    encoded = []
    for label in labels:
        if label not in class_names:
            class_names.append(label)
        encoded.append(class_names.index(label))
    ds = Dataset(np.array(features), encoded,
                 feature_names=[h for h in header if h != label_column],
                 class_names=class_names)
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

    Per-class test counts follow the largest-remainder rule so the test size
    is exactly ``round(P * test_fraction)``; every class keeps at least one
    training sample. Classes with fewer than two samples are an error.
    """
    if np.any(ds.class_counts < 2):
        raise ValueError("stratified split needs >= 2 samples per class")
    rng = np.random.default_rng(spec.seed)
    total_test = int(round(ds.n_samples * spec.test_fraction))
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
    with urllib.request.urlopen(url, timeout=60) as resp:
        return resp.read()


def fetch_raw(descriptor: DatasetDescriptor, opener=None) -> bytes:
    """Download the raw source file for one dataset."""
    if descriptor.source_kind == "kaggle":
        raise FetchError(
            f"{descriptor.name}: hosted on kaggle "
            f"({descriptor.source_ref}); download {descriptor.member} with "
            f"your kaggle credentials and convert it with convert_to_canonical")
    opener = opener or _default_opener
    try:
        payload = opener(descriptor.url())
    except Exception as exc:
        raise FetchError(f"{descriptor.name}: download failed: {exc}") from exc
    if descriptor.source_kind == "uci":
        try:
            with zipfile.ZipFile(io.BytesIO(payload)) as archive:
                return archive.read(descriptor.member)
        except (zipfile.BadZipFile, KeyError) as exc:
            raise FetchError(
                f"{descriptor.name}: bad archive from {descriptor.url()}: "
                f"{exc}") from exc
    return payload


def convert_to_canonical(descriptor: DatasetDescriptor, raw: bytes,
                         out_path) -> None:
    converter = _CONVERTERS.get(descriptor.name)
    if converter is None:
        raise FetchError(f"no converter for {descriptor.name}")
    try:
        features, labels = converter(raw)
    except Exception as exc:
        raise FetchError(
            f"{descriptor.name}: raw file conversion failed: {exc}") from exc
    write_canonical_csv(out_path, features, labels)


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


def ensure_dataset(name: str, data_dir=None, opener=None,
                   refetch: bool = False) -> str:
    """Return the path of the canonical CSV for ``name``, materializing it
    from the best available source if needed.

    Sources, in order: the cached ``<data_dir>/<name>.csv`` (unless
    ``refetch``), the copy bundled in the package's ``data`` directory,
    scikit-learn's copy, then a download through ``opener``. A copy from
    any source is used only if it parses; otherwise the next source is
    tried, and a download that does not parse is an error.
    """
    if name not in REGISTRY:
        raise KeyError(f"unknown dataset {name!r}; known: {sorted(REGISTRY)}")
    descriptor = REGISTRY[name]
    data_dir = data_dir or default_data_dir()
    os.makedirs(data_dir, exist_ok=True)
    path = os.path.join(data_dir, f"{name}.csv")

    def usable() -> bool:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DatasetValidationWarning)
                load_csv(path)
            return True
        except (OSError, ValueError):
            return False

    if not refetch and os.path.exists(path) and usable():
        return path
    bundled = os.path.join(BUNDLED_DIR, f"{name}.csv")
    if os.path.exists(bundled):
        shutil.copyfile(bundled, path)
        if usable():
            return path
    if _sklearn_canonical(descriptor, path) and usable():
        return path
    convert_to_canonical(descriptor, fetch_raw(descriptor, opener), path)
    if not usable():
        raise FetchError(f"{name}: fetched file failed to parse")
    return path


def load_benchmark(name: str, data_dir=None, opener=None) -> Dataset:
    """Ensure then load one registry dataset, with validation warnings."""
    return load_csv(ensure_dataset(name, data_dir, opener), REGISTRY[name])
