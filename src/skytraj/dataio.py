"""File formats: track CSVs, correspondence CSVs, homography and
geotransform text files, the georeference registry, lane segmentation
JSON, YAML configs, and the final trajectory CSV export.

Conventions: CSVs are comma-separated UTF-8 with Unix newlines and a
header row. Homographies serialize as 9 whitespace-separated numbers
(row-major), geotransforms as 6 numbers ``a b c d tx ty`` meaning
x' = a*x + b*y + tx, y' = c*x + d*y + ty.
"""
from __future__ import annotations

import csv
import io
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Context, Decimal
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from typing import Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np
import yaml

from .campaign import CellResult
from .errors import InvalidGeometry, InvariantViolation, IoFailure, ParseError, SkytrajError
from .geometry import GeoTransform, Homography, Point2
from .georeference import (
    GeoRegistry,
    IntersectionEntry,
    LanePolygon,
    SegmentationMap,
    VideoEntry,
)
from .metrics import GroupReport
from .registration import Matches
from .trackmodel import DEFAULT_FPS, DETECTION_DTYPE, VideoTracks

TRACK_COLUMNS = ["frame", "id", "cx", "cy", "w", "h", "class", "score"]

EXPORT_COLUMNS = [
    "Vehicle_ID",
    "Local_Time",
    "Drone_ID",
    "Ortho_X",
    "Ortho_Y",
    "Local_X",
    "Local_Y",
    "Latitude",
    "Longitude",
    "Vehicle_Length",
    "Vehicle_Width",
    "Vehicle_Class",
    "Vehicle_Speed",
    "Vehicle_Acceleration",
    "Road_Section",
    "Lane_Number",
    "Visibility",
]

# Decimal places of each exported quantity, in the export and in the
# georef, dims and kinematics outputs alike.
ORTHO_PLACES = 1  # ortho cut-out pixels
LOCAL_PLACES = 2  # local meters
WGS84_PLACES = 7  # latitude and longitude degrees
DIM_PLACES = 2  # vehicle length and width
SPEED_PLACES = 1  # km/h
ACCEL_PLACES = 2  # m/s^2


def parse_fps(value) -> Fraction:
    """Accept '30000/1001', integers, or decimal strings/floats; refuse a
    boolean, which ``Fraction`` reads as 0 or 1."""
    if isinstance(value, bool):
        raise ValueError(f"fps must be a number, got {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    text = str(value).strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(text)


def _read_text(path) -> tuple[str, ParseError | None]:
    """The text of the UTF-8 file ``path``, read once, and None; or, where
    a byte is not UTF-8, the text of the whole lines before that byte's
    line and ParseError at that line. A file that cannot be opened or read
    raises IoFailure. Both errors name the file."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    try:
        return data.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        error = ParseError(f"not UTF-8 text: {exc}", line=line, path=path)
        # A "\n" byte is never part of a multi-byte UTF-8 sequence.
        return data[:data.rfind(b"\n", 0, exc.start) + 1].decode("utf-8"), error


def _lines(text: str, error: ParseError | None) -> Iterator[str]:
    """The lines of ``text`` as a file opened with ``newline=""`` yields
    them, then ``error`` raised, if any: so a line that fails raises
    before the byte that is not UTF-8 after it."""
    yield from io.StringIO(text, newline="")
    if error is not None:
        raise error


class _UniqueKeyLoader(yaml.SafeLoader):
    """``yaml.SafeLoader`` that refuses a key repeated in one mapping,
    which it would otherwise merge with the last value winning."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue
            key = self.construct_object(key_node, deep=deep)
            if not isinstance(key, Hashable):  # the base class refuses it
                continue
            if key in seen:
                mark = key_node.start_mark
                raise ParseError(f"duplicate key {key!r}", line=mark.line + 1, path=mark.name)
            seen.add(key)
        return super().construct_mapping(node, deep=deep)


def load_yaml(path) -> dict:
    """The mapping of the YAML file ``path``. A byte that is not UTF-8
    wins over a syntax error, anywhere in the file; a key repeated in one
    mapping, at any depth, raises ParseError at its second line."""
    text, error = _read_text(path)
    if error is not None:
        raise error
    stream = io.StringIO(text, newline=None)
    stream.name = path  # yaml names the file in its error marks
    try:
        data = yaml.load(stream, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as exc:
        raise ParseError(f"invalid YAML in {path}: {exc}") from exc
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ParseError("top level must be a mapping", path=path)
    return data


@dataclass(frozen=True)
class VideoSidecar:
    frame_width: int
    frame_height: int
    fps: Fraction
    n_frames: int | None = None
    n_classes: int = 4

    def __post_init__(self):
        if self.frame_width < 1 or self.frame_height < 1:
            raise ValueError(
                f"frame size must be >= 1, got {self.frame_width}x{self.frame_height}"
            )
        if self.fps <= 0:
            raise ValueError(f"fps must be > 0, got {self.fps}")
        if self.n_frames is not None and self.n_frames < 1:
            raise ValueError(f"n_frames must be >= 1, got {self.n_frames}")
        if self.n_classes < 1:
            raise ValueError(f"n_classes must be >= 1, got {self.n_classes}")
        if self.n_classes > MAX_KEY:  # every class fits the table's int64 column
            raise ValueError(f"n_classes must be <= 2**62, got {self.n_classes}")


def whole(name: str, value) -> int:
    """``int(value)``, refusing a boolean and a non-integral float (which
    ``int`` reads as 0 or 1, or truncates). Any refusal raises ValueError
    "<name> must be an integer, got <value>"."""
    if not (isinstance(value, bool) or (isinstance(value, float) and not value.is_integer())):
        try:
            return int(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def load_sidecar(path) -> VideoSidecar:
    data = load_yaml(path)
    try:
        return VideoSidecar(
            frame_width=whole("frame_width", data["frame_width"]),
            frame_height=whole("frame_height", data["frame_height"]),
            fps=parse_fps(data.get("fps", DEFAULT_FPS)),
            n_frames=whole("n_frames", data["n_frames"]) if "n_frames" in data else None,
            n_classes=whole("n_classes", data.get("n_classes", 4)),
        )
    except KeyError as exc:
        raise ParseError(f"missing sidecar key {exc}", path=path) from exc
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad sidecar value: {exc}", path=path) from exc


def load_tracks(
    path, sidecar: VideoSidecar | str | Path, *, require_unit_range: bool = True
) -> VideoTracks:
    """Read a per-video track CSV, validating every row.

    Columns: frame,id,cx,cy,w,h,class,score (normalized floats), plus an
    optional 0/1 ``visible`` column as written by the stabilize stage,
    checked but not kept. Malformed rows raise ParseError, out-of-range values
    InvariantViolation; both name the file and the 1-based line.
    Stabilized tracks may leave the unit square, so their consumers pass
    ``require_unit_range=False``.

    The table is read as every CSV table is: split once if it is plain
    (`_cells`), converted column by column (`_convert`), then checked once
    (`_raise_first`): in row order, the first row that fails a check, with
    the check it fails first, wins over a malformed row or unreadable text
    further down. The checked columns fill the detection table in
    (track_id, frame) order.
    """
    if not isinstance(sidecar, VideoSidecar):
        sidecar = load_sidecar(sidecar)
    kinds = {**dict.fromkeys(TRACK_COLUMNS, float), "frame": int, "id": int, "class": int,
             "visible": _visible}
    columns, lines, error = _convert(path, kinds, *_cells(path, TRACK_COLUMNS, ["visible"]))
    frames, ids, cls, score = (columns[c] for c in ("frame", "id", "class", "score"))
    boxes = [columns[c] for c in ("cx", "cy", "w", "h")]
    order = np.lexsort((frames, ids))
    # Each check's message, in the order a row takes them.
    checks = {"frame must be >= 1": frames < 1, "frame {frame} beyond +-2**62": _beyond(frames)}
    if sidecar.n_frames is not None:
        checks[f"frame {{frame}} exceeds n_frames {sidecar.n_frames}"] = frames > sidecar.n_frames
    checks["id must be >= 1"] = ids < 1
    checks["id {id} beyond +-2**62"] = _beyond(ids)
    if require_unit_range:
        for name, v in zip(("cx", "cy", "w", "h"), boxes):
            checks[f"{name}={{{name}}} outside [0, 1]"] = ~((0.0 <= v) & (v <= 1.0))
    else:
        checks["box values must be finite"] = ~np.logical_and.reduce([*map(np.isfinite, boxes)])
        checks["box size must be >= 0"] = (boxes[2] < 0) | (boxes[3] < 0)
    top = sidecar.n_classes - 1
    checks[f"class {{class}} outside 0..{top}"] = (cls < 0) | (cls > top)
    checks["score {score} outside (0, 1]"] = ~((0.0 < score) & (score <= 1.0))
    checks["duplicate point for id {id} frame {frame}"] = _repeated(order, ids, frames)
    _raise_first(checks, columns, lines, path, error)
    table = np.rec.fromarrays([frames[order], ids[order], np.column_stack(boxes)[order],
                               cls[order], score[order]], dtype=DETECTION_DTYPE)
    return VideoTracks(sidecar.frame_width, sidecar.frame_height, table)


def _visible(cell: str | None) -> bool:
    """The 0/1 cell of a ``visible`` column."""
    if cell not in ("0", "1"):
        raise ValueError(f"visible must be 0 or 1, got {cell!r}")
    return cell == "1"


def _cells(
    path, required: Sequence[str], optional: Sequence[str] = ()
) -> tuple[dict[str, list], Sequence[int], ParseError | None]:
    """The cells of the CSV table at ``path`` by column name, each row's
    line, and the ParseError that ended the reading, or None.

    The header must name every ``required`` column (two or more); the
    cells are those of the ``required`` columns, then of each ``optional``
    column the header names. A repeated header name means its last column.
    The file is read once (`_read_text`); where a byte is not UTF-8, the
    lines before that byte's line are read and its error ends the reading.
    A plain text (`_plain_cells`) is split once; any other text is read
    one csv row at a time (`_csv_cells`).
    """
    text, error = _read_text(path)
    plain = _plain_cells(text, required, optional)
    if plain is None:
        return _csv_cells(text, required, optional, path, error)
    return (*plain, error)


def _plain_cells(
    text: str, required: Sequence[str], optional: Sequence[str]
) -> tuple[dict[str, list[str]], range] | None:
    """`_cells` of a CSV text whose rows the csv module splits at each
    comma, with no error, or None for any other text.

    Such a text has no quote and no carriage return, a header naming every
    ``required`` column and ``len(header) - 1`` commas on each line after
    it, so it has no blank, short or long row and data row k sits on line
    k + 2. A cell over the csv field size limit makes it None too.
    """
    if '"' in text or "\r" in text:
        return None
    rows = text.split("\n")
    header = rows[0].split(",")
    at = {name: i for i, name in enumerate(header)}
    if any(c not in at for c in required):
        return None
    if rows[-1] == "":
        rows.pop()
    if set(map(str.count, rows, repeat(","))) - {len(header) - 1}:
        return None
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, rows)) > limit:
        return None
    lines = range(2, len(rows) + 1)
    flat = ",".join(rows[1:])
    del rows  # hold the file's text and its cells, not its rows or their join too
    cells = flat.split(",") if flat else []
    del flat
    names = (*required, *(c for c in optional if c in at))
    return {c: cells[at[c]::len(header)] for c in names}, lines


def _csv_cells(
    text: str, required: Sequence[str], optional: Sequence[str], path,
    error: ParseError | None,
) -> tuple[dict[str, list], list[int], ParseError | None]:
    """`_cells` of any ``text`` of the file ``path``, read one csv row at a
    time. Blank rows are skipped, cells past the end of a short row are
    None and extra cells are ignored. A missing column, a CSV syntax error
    (a field over the csv module's size limit, say) or ``error``, the
    `_read_text` error at the end of ``text``, is returned after the rows
    read before it."""
    names = list(required)
    rows: list[tuple] = []
    lines: list[int] = []
    reader = csv.reader(_lines(text, error))
    try:
        header = next(reader, [])
        at = {name: i for i, name in enumerate(header)}
        missing = [c for c in required if c not in at]
        if missing:
            raise ParseError(f"missing columns {missing}", line=1, path=path)
        names += [c for c in optional if c in at]
        take = itemgetter(*(at[c] for c in names))
        pad = [None] * (max(at[c] for c in names) + 1)
        for row in reader:
            if not row:
                continue
            if len(row) < len(pad):
                row += pad[len(row):]
            rows.append(take(row))
            lines.append(reader.line_num)
    except csv.Error as exc:
        error = ParseError(f"bad CSV: {exc}", line=reader.line_num, path=path)
    except ParseError as exc:
        error = exc
    columns = [*map(list, zip(*rows))] or [[] for _ in names]
    return dict(zip(names, columns)), lines, error


def _convert(
    path, kinds: Mapping, cells: dict[str, list], lines: Sequence[int], error: ParseError | None
) -> tuple[dict[str, np.ndarray], Sequence[int], ParseError | None]:
    """Each column of ``cells`` read by its kind in ``kinds`` (``int``,
    ``float`` or `_visible`) as an array, with ``lines`` and ``error`` as
    `_cells` gave them. An int column is int64, or Python ints (dtype
    object) where a value does not fit, so that every comparison with it
    is exact.

    Where a cell is malformed (its kind raises TypeError or ValueError),
    the rows from the first malformed one on are dropped, and the error is
    ParseError "malformed row" at that row's line. A row's cells are tried
    in column order, so the message names its first malformed cell.
    """
    columns = {}
    try:
        for name, column in cells.items():
            kind = kinds[name]
            dtype = {int: np.int64, float: np.float64}.get(kind, np.bool_)
            try:
                columns[name] = np.fromiter(map(kind, column), dtype, len(column))
            except OverflowError:  # an int beyond int64
                columns[name] = np.array([*map(kind, column)], dtype=object)
    except (TypeError, ValueError):
        for i, row in enumerate(zip(*cells.values())):
            try:
                for name, cell in zip(cells, row):
                    kinds[name](cell)
            except (TypeError, ValueError) as exc:
                error = ParseError(f"malformed row: {exc}", line=lines[i], path=path)
                kept = {name: column[:i] for name, column in cells.items()}
                return _convert(path, kinds, kept, lines[:i], error)
        raise
    return columns, lines, error


def _raise_first(
    checks: Mapping[str, np.ndarray], values: Mapping[str, np.ndarray],
    lines: Sequence[int], path, error: ParseError | None,
) -> None:
    """Raise InvariantViolation at the line of the first row that fails a
    check, if any; else ``error``, if any.

    ``checks`` maps each message to its per-row failure flags, in the order
    a row takes them; the row's first failing message is formatted with its
    ``values`` (column name to array)."""
    failed = np.logical_or.reduce(list(checks.values()))
    if failed.any():
        i = int(failed.argmax())
        message = next(m for m, bad in checks.items() if bad[i])
        row = {name: column[i:i + 1].tolist()[0] for name, column in values.items()}
        raise InvariantViolation(message.format(**row), line=lines[i], path=path)
    if error is not None:
        raise error


def _repeated(order: np.ndarray, *keys: np.ndarray) -> np.ndarray:
    """Flags of the rows whose ``keys`` all equal those of an earlier row.
    ``order`` is a stable sort of the rows by ``keys``."""
    repeated = np.zeros(len(order), dtype=bool)
    ranked = [k[order] for k in keys]
    repeated[order[1:]] = np.logical_and.reduce([k[1:] == k[:-1] for k in ranked])
    return repeated


# Largest frame number or track id magnitude the loaders accept, and largest
# sidecar n_classes: frame, id and class columns are 64-bit integers.
MAX_KEY = 2**62


def _beyond(keys: np.ndarray) -> np.ndarray:
    """Flags of the ``keys`` beyond +-MAX_KEY. (``np.abs`` would wrap at
    -2**63.)"""
    return (keys > MAX_KEY) | (keys < -MAX_KEY)


@contextmanager
def _output_file(path):
    """``path`` opened for writing UTF-8 text as written (no newline
    translation). A failed open or write in the block raises IoFailure
    naming the file."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


# Rows that `write_csv` writes at a time.
WRITE_BLOCK_ROWS = 256


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header row, then ``rows``, as comma-separated UTF-8 with
    Unix newlines, as ``csv.writer`` writes them. A failed write raises
    IoFailure naming the file.

    ``rows`` is consumed in full before the file is opened, so an error
    raised while producing them leaves no partial file and an existing
    one untouched. The table is written in blocks of `WRITE_BLOCK_ROWS`
    rows; a block that `_plain_lines` joins is written as that text."""
    table = [header, *rows]
    with _output_file(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for start in range(0, len(table), WRITE_BLOCK_ROWS):
            block = table[start:start + WRITE_BLOCK_ROWS]
            text = _plain_lines(block)
            if text is None:
                writer.writerows(block)
            else:
                fh.write(text)


def _plain_lines(block: Sequence[Sequence]) -> str | None:
    """The lines ``csv.writer`` writes for ``block``, joined by plain
    commas and newlines, or None where it would quote or convert a cell.

    That holds when every cell is a ``str``, no line is empty (the
    writer quotes a row of one empty cell), and the joined text has no
    quote or carriage return, one comma fewer than cells on each row and
    one newline per row, so no cell holds a comma or a newline.
    """
    try:
        lines = list(map(",".join, block))
    except TypeError:  # a cell that is not a str
        return None
    if not all(lines):
        return None
    lines.append("")  # the last row's newline, without copying the text
    text = "\n".join(lines)
    if ('"' in text or "\r" in text or text.count("\n") != len(block)
            or text.count(",") != sum(map(len, block)) - len(block)):
        return None
    return text


def write_tracks(tracks: VideoTracks, boxes: np.ndarray, visible: np.ndarray, path) -> None:
    """Write ``tracks`` with the (n, 4) normalized ``boxes`` and the
    ``visible`` flags in place of their own, floats at full precision."""
    t = tracks.table
    write_csv(path, TRACK_COLUMNS + ["visible"], (
        [str(frame), str(tid), *map(repr, box), str(cls), repr(score), "1" if v else "0"]
        for frame, tid, box, cls, score, v in zip(
            t["frame"].tolist(), t["track_id"].tolist(), boxes.tolist(), t["cls"].tolist(),
            t["score"].tolist(), visible.tolist())
    ))


MATCH_COLUMNS = ("src_x", "src_y", "dst_x", "dst_y", "d1", "d2")


def load_correspondences(path) -> Matches:
    """CSV with columns src_x,src_y,dst_x,dst_y and optional d1,d2.

    A row whose d1 or d2 cell is empty has no distances (NaN in both).
    Every other value must be a finite number. Errors name the file and
    the line.

    The table is read as every CSV table is (see `load_tracks`): in row
    order, the first row that fails a check, with the check it fails
    first, wins over a malformed row or unreadable text further down.
    """
    cells, lines, error = _cells(path, MATCH_COLUMNS[:4], MATCH_COLUMNS[4:])
    d1, d2 = (cells.setdefault(c, [None] * len(lines)) for c in MATCH_COLUMNS[4:])
    # A row without both distances reads 0.0 in each until the checks pass.
    bare = [] if all(d1) and all(d2) else [
        i for i, filled in enumerate(map(all, zip(d1, d2))) if not filled
    ]
    for i in bare:
        d1[i] = d2[i] = "0"
    columns, lines, error = _convert(path, dict.fromkeys(MATCH_COLUMNS, float), cells, lines, error)
    table = np.stack([columns[c] for c in MATCH_COLUMNS], axis=1)
    d1, d2 = table[:, 4], table[:, 5]
    _raise_first({
        "match values must be finite": ~np.isfinite(table).all(axis=1),
        "distances must be >= 0": (d1 < 0) | (d2 < 0),
        "d1 must be <= d2": d1 > d2,
    }, columns, lines, path, error)
    table[bare, 4:] = np.nan
    return Matches(table[:, 0:2], table[:, 2:4], d1, d2, list(lines))


def _parse_floats(
    tokens: Sequence[str], n: int, line: int, what: str, path=None
) -> list[float]:
    """``n`` finite numbers; errors carry the line and, if given, the file."""
    if len(tokens) != n:
        raise ParseError(f"{what} needs {n} numbers, got {len(tokens)}", line=line, path=path)
    try:
        values = [float(t) for t in tokens]
    except ValueError as exc:
        raise ParseError(f"bad number in {what}: {exc}", line=line, path=path) from exc
    if not all(map(math.isfinite, values)):
        raise ParseError(f"{what} values must be finite", line=line, path=path)
    return values


def _directives(path):
    """(line number, whitespace-separated tokens) of each line of the file
    ``path`` that holds more than blanks and a comment ('#' to the end of
    the line). The file is read once (`_read_text`); a byte that is not
    UTF-8 raises after every line before its own (`_lines`), so a line
    that fails raises first."""
    for line, raw in enumerate(_lines(*_read_text(path)), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield line, tokens


def load_homography_log(path) -> dict[int, Homography]:
    """Per-frame homographies: each line is a frame index plus 9 numbers."""
    out: dict[int, Homography] = {}
    for line, tokens in _directives(path):
        try:
            frame = int(tokens[0])
        except ValueError as exc:
            raise ParseError(f"bad frame index: {exc}", line=line, path=path) from exc
        vals = _parse_floats(tokens[1:], 9, line, "homography row", path)
        if frame in out:
            raise InvariantViolation(f"duplicate frame {frame}", line=line, path=path)
        out[frame] = _transform(Homography.from_matrix, vals, line, path)
    return out


def _transform(read, values: Sequence[float], line: int, path):
    """``read(values)``, a transform; InvalidGeometry (a singular map, say)
    raises as InvariantViolation at ``line`` of ``path``."""
    try:
        return read(values)
    except InvalidGeometry as exc:
        raise InvariantViolation(str(exc), line=line, path=path) from exc


def write_homography_log(homs: Mapping[int, Homography], path) -> None:
    with _output_file(path) as fh:
        for frame in sorted(homs):
            row = " ".join(map(repr, homs[frame].m.ravel().tolist()))
            fh.write(f"{frame} {row}\n")


# Each registry block: the entry it builds, and per directive the count
# of numbers it takes and the transform it reads them as.
_REGISTRY_BLOCKS = {
    "intersection": (IntersectionEntry, {
        "master_to_ortho": (9, Homography.from_matrix),
        "geo_local": (6, lambda values: GeoTransform(*values)),
        "geo_wgs": (6, lambda values: GeoTransform(*values)),
    }),
    "video": (VideoEntry, {"ref_to_master": (9, Homography.from_matrix)}),
}


def load_registry(path) -> GeoRegistry:
    """Plain-text registry of per-intersection and per-video transforms.

    Blocks:
        intersection <label>
        master_to_ortho <9 numbers>
        geo_local <6 numbers>
        geo_wgs <6 numbers>

        video <video_id> <intersection_label>
        ref_to_master <9 numbers>

    Comments ('#' to the end of a line) and blank lines are ignored. An
    incomplete block is reported at its header line, a repeated label or
    a repeated directive within one block at the repeating line.
    """
    entries: dict[str, dict] = {"intersection": {}, "video": {}}
    block = None  # (kind, label, header line) of the block being read
    directives: dict = {}  # the directives it takes
    fields: dict = {}  # its entry's fields read so far

    def close():
        if block is None:
            return
        kind, label, line = block
        if label in entries[kind]:
            raise ParseError(f"repeated {kind} {label!r}", line=line, path=path)
        if any(k not in fields for k in directives):
            raise ParseError(f"{kind} {label!r} incomplete", line=line, path=path)
        entries[kind][label] = _REGISTRY_BLOCKS[kind][0](**fields)

    for line, tokens in _directives(path):
        key = tokens[0]
        if key == "intersection":
            close()
            if len(tokens) != 2:
                raise ParseError("intersection needs a label", line=line, path=path)
            block, fields = (key, tokens[1], line), {}
            directives = _REGISTRY_BLOCKS[key][1]
        elif key == "video":
            close()
            if len(tokens) != 3:
                raise ParseError(
                    "video needs an id and an intersection label", line=line, path=path
                )
            block, fields = (key, tokens[1], line), {"intersection": tokens[2]}
            directives = _REGISTRY_BLOCKS[key][1]
        elif key in directives:
            if key in fields:
                kind, label, _ = block
                raise ParseError(f"repeated {key} in {kind} {label!r}", line=line, path=path)
            n, read = directives[key]
            values = _parse_floats(tokens[1:], n, line, key, path)
            fields[key] = _transform(read, values, line, path)
        else:
            raise ParseError(f"unexpected directive {key!r}", line=line, path=path)
    close()

    intersections, videos = entries["intersection"], entries["video"]
    for vid, entry in videos.items():
        if entry.intersection not in intersections:
            raise ParseError(
                f"video {vid!r} references unknown intersection {entry.intersection!r}",
                path=path,
            )
    return GeoRegistry(intersections=intersections, videos=videos)


def _vertex(k: int, value) -> Point2:
    """Vertex ``k`` of a segmentation polygon: a JSON array of two numbers
    (a boolean is no number)."""
    if not (isinstance(value, list) and len(value) == 2
            and not any(isinstance(v, bool) for v in value)):
        raise ValueError(f"vertex {k} must be [x, y] numbers, got {value!r}")
    return Point2(float(value[0]), float(value[1]))


def load_segmentation(path) -> SegmentationMap:
    """JSON list of {section, lane, polygon: [[x, y], ...]} in ortho pixels;
    a section is read as text and must not be null or empty (an empty
    cell is the export's off-lane mark), and a lane number is a whole
    number from 1 (see `whole`)."""
    text, error = _read_text(path)
    if error is not None:
        raise error
    try:
        data = json.load(io.StringIO(text, newline=None))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", path=path) from exc
    if not isinstance(data, list):
        raise ParseError("segmentation must be a JSON list", path=path)
    lanes = []
    for i, item in enumerate(data):
        try:
            section = item["section"]
            if section is None or section == "":
                raise ValueError(f"section must not be null or empty, got {section!r}")
            section = str(section)
            lane = whole("lane", item["lane"])
            polygon = tuple(_vertex(k, v) for k, v in enumerate(item["polygon"]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"bad segmentation entry {i}: {exc}", path=path) from exc
        if not all(math.isfinite(v) for p in polygon for v in p):
            raise InvariantViolation(f"polygon {i} has a non-finite vertex", path=path)
        if lane < 1:
            raise InvariantViolation(f"lane numbers start at 1 (entry {i})", path=path)
        if len(polygon) < 3:
            raise InvariantViolation(f"polygon {i} needs >= 3 vertices", path=path)
        lanes.append(LanePolygon(section=section, lane=lane, polygon=polygon))
    return SegmentationMap(lanes=tuple(lanes))


@dataclass(frozen=True)
class SessionMeta:
    drone_id: int = 1
    start_time: str = "00:00:00.000"  # 'HH:MM:SS.sss', optionally prefixed 'YYYY-MM-DDT'
    fps: Fraction = DEFAULT_FPS
    intersection: str = ""
    date: str = ""
    session: str = ""

    def __post_init__(self):
        if not 1 <= self.drone_id <= 10:
            raise ValueError("drone_id must be in 1..10")
        if self.fps <= 0:
            raise ValueError("fps must be positive")
        _parse_clock(self.start_time)

    @cached_property
    def ms_terms(self) -> tuple[int, int, int]:
        """Integers (A, B, D) such that frame f starts (A + (f - 1) * B) / D
        milliseconds after midnight: with the start clock a/b seconds and
        the frame rate p/q, A = 1000*a*p, B = 1000*q*b and D = b*p > 0."""
        clock, fps = _parse_clock(self.start_time), Fraction(self.fps)
        a, b = clock.numerator, clock.denominator
        p, q = fps.numerator, fps.denominator
        return 1000 * a * p, 1000 * q * b, b * p


def _parse_clock(text: str) -> Fraction:
    clock = text.split("T")[-1].split(" ")[-1]
    parts = clock.split(":")
    if len(parts) != 3:
        raise ValueError(f"bad clock string {text!r}")
    hours, minutes, seconds = Fraction(parts[0]), Fraction(parts[1]), Fraction(parts[2])
    return hours * 3600 + minutes * 60 + seconds


def frame_to_timestamp(frame: int, meta: SessionMeta) -> str:
    """Local wall-clock time of a frame, 'hh:mm:ss.sss'.

    Exact rational arithmetic in the frame rate; milliseconds truncate
    toward zero, and the clock wraps at midnight. The start clock is
    parsed once per ``meta`` (`SessionMeta.ms_terms`); each call is then
    one integer division, equal to truncating
    ``(start + Fraction(frame - 1) / fps) * 1000``.
    """
    if frame < 1:
        raise ValueError("frame must be >= 1")
    base, step, den = meta.ms_terms
    num = base + (frame - 1) * step
    total_ms = (num // den if num >= 0 else -(-num // den)) % (24 * 3600 * 1000)
    hours, rem = divmod(total_ms, 3_600_000)
    minutes, rem = divmod(rem, 60_000)
    seconds, millis = divmod(rem, 1000)
    return f"{hours:02d}:{minutes:02d}:{seconds:02d}.{millis:03d}"


# A finite double has at most 309 integer digits; this precision holds
# them with up to 31 places.
_FIXED_POINT = Context(prec=340)


def format_fixed(value: float | None, places: int) -> str:
    """Fixed-point decimal string of ``repr(value)``, ties rounded away from
    zero; '' for None; never '-0.00'.

    Two fast paths give the bytes of the ``Decimal`` rounding of the repr
    digits without building a ``Decimal``. When the repr has at most
    ``places`` fractional digits, it is padded with zeros. When it has
    more and does not end on a half at position ``places + 1``, no
    rounding half lies between the float and its repr (the repr is the
    shortest, nearest decimal that reads back as the float), so Python's
    correctly rounded ``f"{x:.{places}f}"`` agrees. A repr with an
    exponent, a non-finite value, and a repr ending on that half go
    through ``Decimal``, in a context wide enough for every digit of any
    finite double, so quantizing is exact. NaN gives 'NaN'; an infinite
    value raises SkytrajError.
    """
    if value is None:
        return ""
    x = float(value)
    text = repr(x)
    _, dot, frac = text.partition(".")
    if not dot or "e" in frac or (len(frac) == places + 1 and frac[-1] == "5"):
        if math.isinf(x):
            raise SkytrajError(f"cannot write {x} as a fixed-point number")
        quantum = Decimal(1).scaleb(-places)
        d = Decimal(text).quantize(quantum, rounding=ROUND_HALF_UP, context=_FIXED_POINT)
        if d == 0:
            d = abs(d)  # avoid '-0.00'
        return f"{d:.{places}f}"
    out = text + "0" * (places - len(frac)) if len(frac) <= places else f"{x:.{places}f}"
    return out[1:] if out[0] == "-" and not out.strip("-0.") else out


def format_column(values, places: int) -> list[str]:
    """`format_fixed` of every value of a float array, in order.

    A value whose repr has more than ``places + 1`` fractional digits and
    no exponent, and that does not round to a negative zero, takes
    `format_fixed`'s correctly rounded ``f``-format path, which is
    ``"%.{places}f"``. A vectorized screen sends every other value, and
    some more, through `format_fixed` itself: non-finite values, |x| <
    1e-4 and |x| >= 1e15 (exponent reprs, zeros, subnormals and the
    padding of short reprs at huge magnitudes), values within a few ulps
    of a ``places + 1``-digit decimal (every repr that short, so every
    tie), and negatives below ``10**-places``.
    """
    x = np.asarray(values, dtype=float)
    fmt = f"%.{places}f"
    cells = [fmt % v for v in x.tolist()]
    ax = np.abs(x)
    with np.errstate(invalid="ignore", over="ignore"):
        # A repr with at most places + 1 fractional digits lies within half
        # an ulp of x, which scales to less than 1.5 ulps of ``scaled``.
        scaled = ax * 10.0 ** (places + 1)
        slow = ~((ax >= 1e-4) & (ax < 1e15))
        slow |= np.abs(scaled - np.rint(scaled)) <= 4.0 * np.spacing(scaled)
        slow |= (x < 0.0) & (ax < 10.0 ** -places)
    for i in np.flatnonzero(slow).tolist():
        cells[i] = format_fixed(x[i], places)
    return cells


def optional_cells(values: np.ndarray, places: int) -> list[str]:
    """`format_column` cells of ``values``, '' where a value is NaN.

    Each distinct value is formatted once (0.0 and -0.0 give the same
    cell). An infinite value raises as `format_fixed` does, the first one
    in order."""
    infinite = np.isinf(values)
    if infinite.any():
        format_fixed(values[infinite.argmax()], places)  # raises
    filled = ~np.isnan(values)
    distinct, at = np.unique(values[filled], return_inverse=True)
    cells = np.full(len(values), "", dtype=object)
    cells[filled] = np.array(format_column(distinct, places), dtype=object)[at]
    return cells.tolist()


def export_songdo(rows: Iterable[Sequence[str]], destination) -> None:
    """Write the final trajectory CSV: the header, then ``rows`` as given,
    the cells `pipeline.run_pipeline` returns."""
    write_csv(destination, EXPORT_COLUMNS, rows)


CAMPAIGN_COLUMNS = [
    "snn_ratio",
    "downscale",
    "reproj_threshold",
    "n_points",
    "hea",
    "miou",
    "trials",
]


def write_campaign_results(
    results: Sequence[CellResult], path, timing_path=None
) -> None:
    """Results CSV holds only seed-determined values so reruns are
    byte-identical; per-cell mean estimator time goes to a sidecar file."""

    def cell(r: CellResult) -> list:
        snn = "" if r.snn_ratio is None else repr(r.snn_ratio)
        return [snn, repr(r.downscale), repr(r.reproj_threshold), str(r.n_points)]

    write_csv(path, CAMPAIGN_COLUMNS,
              ([*cell(r), repr(r.hea), repr(r.miou), str(r.trials)] for r in results))
    if timing_path is not None:
        write_csv(timing_path, CAMPAIGN_COLUMNS[:4] + ["mean_time_ms"],
                  ([*cell(r), format_fixed(r.mean_time_ms, 3)] for r in results))


def _not_finite(columns: Mapping[str, np.ndarray], *names: str) -> dict[str, np.ndarray]:
    """The `_raise_first` checks that each of the ``names`` columns is
    finite, in that order."""
    return {f"{name}={{{name}}} is not finite": ~np.isfinite(columns[name]) for name in names}


def load_probe_trajectory(path) -> np.ndarray:
    """Probe CSV: t,x,y,speed (local meters, speed in km/h), all finite.

    Returns the (n, 3) rows ``x, y, speed`` in file order."""
    names = ["t", "x", "y", "speed"]
    columns, lines, error = _convert(path, dict.fromkeys(names, float), *_cells(path, names))
    _raise_first(_not_finite(columns, *names), columns, lines, path, error)
    return np.stack([columns[c] for c in names[1:]], axis=1)


def load_candidate_trajectory(path) -> np.ndarray:
    """Candidate CSV: frame,x,y,speed (local meters, smoothed speed km/h),
    all finite, one row per frame, ``|frame|`` at most 2**62.

    Returns the (n, 3) rows ``x, y, speed`` in frame order."""
    names = ["frame", "x", "y", "speed"]
    kinds = {**dict.fromkeys(names, float), "frame": int}
    columns, lines, error = _convert(path, kinds, *_cells(path, names))
    frames = columns["frame"]
    order = np.lexsort((frames,))
    checks = _not_finite(columns, "x", "y", "speed")
    checks["frame {frame} beyond +-2**62"] = _beyond(frames)
    checks["duplicate frame {frame}"] = _repeated(order, frames)
    _raise_first(checks, columns, lines, path, error)
    return np.stack([columns[c][order] for c in names[1:]], axis=1)


class LocalTrack(NamedTuple):
    """One vehicle's local-coordinate trajectory, in frame order."""

    frames: np.ndarray  # ascending frame numbers
    x: np.ndarray  # m
    y: np.ndarray  # m
    visible: np.ndarray  # bool


def load_local_trajectories(path) -> dict[int, LocalTrack]:
    """Local-coordinate trajectories CSV: id,frame,x,y (finite) with
    an optional 0/1 visible column (every frame visible when it is absent).

    Returns each vehicle's trajectory, by ascending id.
    """
    kinds = {"id": int, "frame": int, "x": float, "y": float, "visible": _visible}
    columns, lines, error = _convert(path, kinds, *_cells(path, list(kinds)[:4], ["visible"]))
    ids, frames, x, y = (columns[c] for c in ("id", "frame", "x", "y"))
    order = np.lexsort((frames, ids))
    checks = _not_finite(columns, "x", "y")
    checks["frame {frame} beyond +-2**62"] = _beyond(frames)
    checks["duplicate frame {frame} for id {id}"] = _repeated(order, ids, frames)
    _raise_first(checks, columns, lines, path, error)
    visible = columns.get("visible", np.ones(len(lines), dtype=bool))
    vids, starts = np.unique(ids[order], return_index=True)
    return {
        vid: LocalTrack(frames[rows], x[rows], y[rows], visible[rows])
        for vid, rows in zip(vids.tolist(), np.split(order, starts[1:]))
    }


COMPARISON_COLUMNS = [
    "group",
    "samples",
    "pos_dev_mean_m",
    "pos_dev_std_m",
    "speed_diff_mean_kmh",
    "speed_diff_std_kmh",
    "traj_length_m",
    "traj_duration_s",
    "skipped",
]


def write_comparison_report(r: GroupReport, path) -> None:
    """The report's mean +/- population sd of both deviations, plus the
    trajectory length/duration, under the header."""
    write_csv(path, COMPARISON_COLUMNS, [[
        r.key,
        str(r.n_samples),
        format_fixed(r.pos_dev_mean_m, 3),
        format_fixed(r.pos_dev_std_m, 3),
        format_fixed(r.speed_diff_mean_kmh, 3),
        format_fixed(r.speed_diff_std_kmh, 3),
        format_fixed(r.traj_length_m, 2),
        format_fixed(r.traj_duration_s, 2),
        str(r.skipped),
    ]])
