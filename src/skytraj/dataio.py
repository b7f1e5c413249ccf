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
from typing import Iterable, Mapping, NamedTuple, Sequence

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
from .trackmodel import DEFAULT_FPS, Detection, TrackPoint, VideoTracks

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
    """Accept '30000/1001', integers, or decimal strings/floats."""
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


@contextmanager
def _text_file(path, newline: str | None = ""):
    """``path`` opened as UTF-8 text, with ``open``'s ``newline``.

    Every loader reads its file in this block. A file that cannot be
    opened or read raises IoFailure; a byte that is not UTF-8, met
    anywhere in the block, raises ParseError at its line. Both name the
    file.
    """
    try:
        fh = open(path, "r", encoding="utf-8", newline=newline)
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise _not_utf8(path) from exc
        except OSError as exc:
            raise IoFailure(f"cannot read {path}: {exc}") from exc


def _not_utf8(path) -> ParseError:
    """ParseError at the line of the first byte of ``path`` that is not
    UTF-8. (A decoding error counts bytes from the start of the chunk it
    decoded, so the whole file is decoded again.)"""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return ParseError(f"not UTF-8 text: {exc}", line=line, path=path)
    return ParseError("not UTF-8 text", path=path)  # the file changed since


@contextmanager
def _csv_errors(path, reader):
    """Raise a CSV syntax error in the block (a field over the csv module's
    size limit, say) as ParseError naming the file and ``reader``'s line."""
    try:
        yield reader
    except csv.Error as exc:
        raise ParseError(f"bad CSV: {exc}", line=reader.line_num, path=path) from exc


def load_yaml(path) -> dict:
    try:
        with _text_file(path, newline=None) as fh:
            data = yaml.safe_load(fh)
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

    A plain file is converted in one pass (`_plain_track_table`); any
    other file is read row by row up to its first malformed row
    (`_track_rows`). The checks then run once on the table read
    (`_failed_track_check`): in row order, the first row that fails one,
    with the check it fails first, wins over a malformed row further down.
    The points are built in one pass, in (track_id, frame) order.
    """
    if not isinstance(sidecar, VideoSidecar):
        sidecar = load_sidecar(sidecar)
    try:
        with _text_file(path) as fh:
            table = _plain_track_table(fh.read())
    except ParseError:  # not UTF-8: the row loop checks the rows before the byte first
        table = None
    if table is None:
        table, lines, error = _track_rows(path)
    else:
        lines, error = range(2, len(table.frames) + 2), None
    order = np.lexsort((table.frames, table.ids))
    failed = _failed_track_check(table, order, sidecar, require_unit_range)
    if failed:
        i, message = failed
        raise InvariantViolation(message, line=lines[i], path=path)
    if error is not None:
        raise error
    frames, ids, boxes, cls, score = (column[order].tolist() for column in table)
    return VideoTracks(
        frame_width=sidecar.frame_width,
        frame_height=sidecar.frame_height,
        points=tuple(map(TrackPoint, frames, ids, map(Detection, map(tuple, boxes), cls, score))),
    )


class _TrackTable(NamedTuple):
    """The rows of a track file as columns, in file order. An int column is
    int64, or Python ints (dtype object) where a value does not fit, so
    that every comparison with it is exact."""

    frames: np.ndarray
    ids: np.ndarray
    boxes: np.ndarray  # (n, 4) cx, cy, w, h
    cls: np.ndarray
    score: np.ndarray


def _track_table(columns: Sequence[Sequence]) -> _TrackTable:
    """The table of the cells of the eight ``TRACK_COLUMNS``, each read
    with ``int()`` or ``float()``; a cell that one rejects raises
    ValueError."""
    frames, ids, cx, cy, w, h, cls, score = columns
    cx, cy, w, h, score = (
        np.fromiter(map(float, c), dtype=float, count=len(c)) for c in (cx, cy, w, h, score)
    )
    return _TrackTable(
        _int_column(frames), _int_column(ids), np.stack([cx, cy, w, h], axis=1),
        _int_column(cls), score,
    )


def _int_column(cells: Sequence) -> np.ndarray:
    """``int()`` of each cell, as int64 or, where a value does not fit, as
    Python ints (dtype object)."""
    try:
        return np.fromiter(map(int, cells), dtype=np.int64, count=len(cells))
    except OverflowError:
        return np.array([*map(int, cells)], dtype=object)


def _plain_track_table(text: str) -> _TrackTable | None:
    """The `_TrackTable` of a plain file (`_plain_cells`), or None; its
    values are not checked. None also where the row-by-row reading must
    decide: a cell that ``int()`` or ``float()`` rejects, or a ``visible``
    cell other than 0 or 1."""
    plain = _plain_cells(text, TRACK_COLUMNS)
    if plain is None:
        return None
    at, width, cells = plain
    if "visible" in at and not set(cells[at["visible"]::width]) <= {"0", "1"}:
        return None
    try:
        return _track_table([cells[at[c]::width] for c in TRACK_COLUMNS])
    except ValueError:
        return None


def _track_rows(path) -> tuple[_TrackTable, list[int], ParseError | None]:
    """The track table of ``path`` read one csv row at a time, each row's
    line and the ParseError that ended the reading, or None. The rows read
    before that error are returned."""
    rows: list[tuple] = []
    lines: list[int] = []
    error = None
    try:
        for line, values in _read_csv_rows(
            path, TRACK_COLUMNS, _track_values, optional=["visible"]
        ):
            rows.append(values)
            lines.append(line)
    except ParseError as exc:
        error = exc
    return _track_table([*zip(*rows)] or [()] * len(TRACK_COLUMNS)), lines, error


def _failed_track_check(
    table: _TrackTable, order: np.ndarray, sidecar: VideoSidecar, unit_range: bool
) -> tuple[int, str] | None:
    """The first row of ``table`` that fails a check, with the message of
    the check it fails first, or None. ``order`` sorts the rows by
    (id, frame), equal keys in row order; the later row of an equal pair
    is a duplicate point."""
    frames, ids, boxes, cls, score = table
    sorted_frames, sorted_ids = frames[order], ids[order]
    duplicate = np.zeros(len(order), dtype=bool)
    duplicate[order[1:]] = (sorted_frames[1:] == sorted_frames[:-1]) & (
        sorted_ids[1:] == sorted_ids[:-1]
    )
    # Each check's message, in the order a row takes them. A key beyond
    # MAX_KEY is positive here: a negative one fails the ">= 1" check first.
    checks = {"frame must be >= 1": frames < 1, "frame {frame} beyond +-2**62": frames > MAX_KEY}
    if sidecar.n_frames is not None:
        checks["frame {frame} exceeds n_frames {n_frames}"] = frames > sidecar.n_frames
    checks["id must be >= 1"] = ids < 1
    checks["id {id} beyond +-2**62"] = ids > MAX_KEY
    if unit_range:
        for name, v in zip(("cx", "cy", "w", "h"), boxes.T):
            checks[f"{name}={{{name}}} outside [0, 1]"] = ~((0.0 <= v) & (v <= 1.0))
    else:
        checks["box values must be finite"] = ~np.isfinite(boxes).all(axis=1)
        checks["box size must be >= 0"] = (boxes[:, 2] < 0) | (boxes[:, 3] < 0)
    checks["class {cls} outside 0..{top}"] = (cls < 0) | (cls >= sidecar.n_classes)
    checks["score {score} outside (0, 1]"] = ~((0.0 < score) & (score <= 1.0))
    checks["duplicate point for id {id} frame {frame}"] = duplicate
    failed = np.logical_or.reduce(list(checks.values()))
    if not failed.any():
        return None
    i = int(failed.argmax())
    message = next(m for m, bad in checks.items() if bad[i])
    cx, cy, w, h = boxes[i].tolist()
    return i, message.format(
        frame=int(frames[i]), id=int(ids[i]), cx=cx, cy=cy, w=w, h=h, cls=int(cls[i]),
        score=float(score[i]), n_frames=sidecar.n_frames, top=sidecar.n_classes - 1,
    )


def _track_values(cells: Sequence) -> tuple:
    """The typed cells of a track CSV row. A ``visible`` cell is checked
    last and not kept: the stages compute visibility from the boxes."""
    values = (
        int(cells[0]),  # frame
        int(cells[1]),  # id
        float(cells[2]),  # cx
        float(cells[3]),  # cy
        float(cells[4]),  # w
        float(cells[5]),  # h
        int(cells[6]),  # class
        float(cells[7]),  # score
    )
    _visible(cells[8:], False)
    return values


def _visible(cells: Sequence, default: bool) -> bool:
    """The 0/1 ``visible`` cell, the one item of ``cells``; ``default``
    when ``cells`` is empty (a table without the column)."""
    if not cells:
        return default
    (cell,) = cells
    if cell not in ("0", "1"):
        raise ValueError(f"visible must be 0 or 1, got {cell!r}")
    return cell == "1"


def _read_csv_rows(path, required: Sequence[str], convert, optional: Sequence[str] = ()):
    """(line, ``convert(cells)``) for each non-blank row of the CSV table at
    ``path``, whose header must name every ``required`` column (two or
    more). ``cells`` holds the row's cells of the ``required`` columns, then
    of each ``optional`` column the header names, in that order; a repeated
    header name means its last column, cells past the end of a short row are
    None and extra cells are ignored. A cell that ``convert`` cannot read
    raises ParseError "malformed row". Errors name the file and the line."""
    with _text_file(path) as fh, _csv_errors(path, csv.reader(fh)) as reader:
        header = next(reader, [])
        at = {name: i for i, name in enumerate(header)}
        missing = [c for c in required if c not in at]
        if missing:
            raise ParseError(f"missing columns {missing}", line=1, path=path)
        columns = [at[c] for c in (*required, *(c for c in optional if c in at))]
        take = itemgetter(*columns)
        pad = [None] * (max(columns) + 1)
        for row in reader:
            if not row:
                continue
            if len(row) < len(pad):
                row += pad[len(row):]
            try:
                values = convert(take(row))
            except (TypeError, ValueError) as exc:
                raise ParseError(
                    f"malformed row: {exc}", line=reader.line_num, path=path
                ) from exc
            yield reader.line_num, values


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


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header row, then ``rows``, as comma-separated UTF-8 with
    Unix newlines. A failed write raises IoFailure naming the file.

    ``rows`` is consumed in full before the file is opened, so an error
    raised while producing them leaves no partial file and an existing
    one untouched."""
    rows = list(rows)
    with _output_file(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_tracks(tracks: VideoTracks, boxes: np.ndarray, visible: np.ndarray, path) -> None:
    """Write ``tracks`` with the (n, 4) normalized ``boxes`` and the
    ``visible`` flags in place of their own, floats at full precision."""
    write_csv(path, TRACK_COLUMNS + ["visible"], (
        [p.frame, p.track_id, *map(repr, box), p.detection.cls, repr(p.detection.score), int(v)]
        for p, box, v in zip(tracks.points, boxes.tolist(), visible.tolist())
    ))


MATCH_COLUMNS = ("src_x", "src_y", "dst_x", "dst_y", "d1", "d2")


def load_correspondences(path) -> Matches:
    """CSV with columns src_x,src_y,dst_x,dst_y and optional d1,d2.

    A row whose d1 or d2 cell is empty has no distances (NaN in both).
    Every other value must be a finite number. Errors name the file and
    the line.

    A plain file is converted in one pass (`_plain_match_table`); any
    other file is read row by row (`_match_rows`). The checks then run
    once on the table read: in row order, the first row that fails one,
    with the check it fails first, wins over a malformed row further down.
    """
    with _text_file(path) as fh:
        text = fh.read()
    table = _plain_match_table(text)
    if table is None:
        table, lines, bare, error = _match_rows(path)
    else:
        lines, bare, error = list(range(2, len(table) + 2)), [], None
    failed = _failed_check(table)
    if failed:
        i, message = failed
        raise InvariantViolation(message, line=lines[i], path=path)
    if error is not None:
        raise error
    table[bare, 4:] = np.nan
    return Matches(table[:, 0:2], table[:, 2:4], table[:, 4], table[:, 5], lines)


def _plain_match_table(text: str) -> np.ndarray | None:
    """The (n, 6) ``MATCH_COLUMNS`` table of a plain file (`_plain_cells`),
    or None; its values are not checked. None also where the row-by-row
    reading must decide: a cell that ``float()`` rejects (such as an empty
    distance)."""
    plain = _plain_cells(text, MATCH_COLUMNS)
    if plain is None:
        return None
    at, width, cells = plain
    try:
        table = np.fromiter(map(float, cells), dtype=float, count=len(cells))
    except ValueError:
        return None
    return table.reshape(-1, width)[:, [at[c] for c in MATCH_COLUMNS]]


def _plain_cells(
    text: str, required: Sequence[str]
) -> tuple[dict[str, int], int, list[str]] | None:
    """The column of each header name, the row width and the data cells,
    row after row, of a CSV text whose rows the csv module splits at each
    comma, or None.

    Such a text has no quote and no carriage return, a header naming every
    ``required`` column (in any order, among others; a repeated name means
    its last column) and ``len(header) - 1`` commas on each line after it,
    so it has no blank, short or long row and data row k sits on line
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
    flat = ",".join(rows[1:])
    del rows  # hold the file's text and its cells, not its rows or their join too
    cells = flat.split(",") if flat else []
    del flat
    return at, len(header), cells


def _failed_check(table: np.ndarray) -> tuple[int, str] | None:
    """The first row of an (n, 6) match table that fails a check, with the
    check it fails first, or None."""
    d1, d2 = table[:, 4], table[:, 5]
    checks = {
        "match values must be finite": ~np.isfinite(table).all(axis=1),
        "distances must be >= 0": (d1 < 0) | (d2 < 0),
        "d1 must be <= d2": d1 > d2,
    }
    failed = np.logical_or.reduce(list(checks.values()))
    if not failed.any():
        return None
    i = int(failed.argmax())
    return i, next(m for m, bad in checks.items() if bad[i])


def _match_rows(path) -> tuple[np.ndarray, list[int], list[int], ParseError | None]:
    """The match table of ``path`` read one csv row at a time: the (n, 6)
    table, each row's line, the indices of the rows without distances
    (0.0 in both until the checks pass) and the ParseError that ended the
    reading, or None. The rows read before that error are returned."""
    rows: list[list[float]] = []
    lines: list[int] = []
    bare: list[int] = []
    error = None
    try:
        for line, values in _read_csv_rows(
            path, MATCH_COLUMNS[:4], _match_values, optional=MATCH_COLUMNS[4:]
        ):
            if len(values) == 4:
                bare.append(len(rows))
                values += [0.0, 0.0]
            rows.append(values)
            lines.append(line)
    except ParseError as exc:
        error = exc
    return np.array(rows, dtype=float).reshape(-1, 6), lines, bare, error


def _match_values(cells: Sequence) -> list[float]:
    """The numbers of a match row: all six, or the four coordinates of a
    row without a d1 cell and a d2 cell that are both filled."""
    if len(cells) < 6 or cells[4] in (None, "") or cells[5] in (None, ""):
        cells = cells[:4]
    return [*map(float, cells)]


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


def homography_from_row(values: Sequence[float]) -> Homography:
    return Homography.from_matrix([values[0:3], values[3:6], values[6:9]])


def homography_to_row(h: Homography) -> list[float]:
    return [float(v) for v in h.m.reshape(-1)]


def geotransform_from_row(values: Sequence[float]) -> GeoTransform:
    a, b, c, d, tx, ty = values
    return GeoTransform(a, b, c, d, tx, ty)


def _directives(fh):
    """(line number, whitespace-separated tokens) of each line of ``fh``
    that holds more than blanks and a comment ('#' to the end of the line)."""
    for line, raw in enumerate(fh, start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield line, tokens


def load_homography_log(path) -> dict[int, Homography]:
    """Per-frame homographies: each line is a frame index plus 9 numbers."""
    out: dict[int, Homography] = {}
    with _text_file(path) as fh:
        for line, tokens in _directives(fh):
            try:
                frame = int(tokens[0])
            except ValueError as exc:
                raise ParseError(f"bad frame index: {exc}", line=line, path=path) from exc
            vals = _parse_floats(tokens[1:], 9, line, "homography row", path)
            if frame in out:
                raise InvariantViolation(f"duplicate frame {frame}", line=line, path=path)
            out[frame] = _transform(homography_from_row, vals, line, path)
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
            row = " ".join(repr(v) for v in homography_to_row(homs[frame]))
            fh.write(f"{frame} {row}\n")


# Each registry block: the entry it builds, and per directive the count
# of numbers it takes and the transform it reads them as.
_REGISTRY_BLOCKS = {
    "intersection": (IntersectionEntry, {
        "master_to_ortho": (9, homography_from_row),
        "geo_local": (6, geotransform_from_row),
        "geo_wgs": (6, geotransform_from_row),
    }),
    "video": (VideoEntry, {"ref_to_master": (9, homography_from_row)}),
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

    with _text_file(path) as fh:
        for line, tokens in _directives(fh):
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


def load_segmentation(path) -> SegmentationMap:
    """JSON list of {section, lane, polygon: [[x, y], ...]} in ortho pixels."""
    try:
        with _text_file(path, newline=None) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", path=path) from exc
    if not isinstance(data, list):
        raise ParseError("segmentation must be a JSON list", path=path)
    lanes = []
    for i, item in enumerate(data):
        try:
            section = str(item["section"])
            lane = int(item["lane"])
            polygon = tuple(Point2(float(x), float(y)) for x, y in item["polygon"])
        except (KeyError, TypeError, ValueError) as exc:
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
    """`format_column` cells of ``values``, '' where a value is NaN."""
    filled = ~np.isnan(values)
    cells = np.full(len(values), "", dtype=object)
    cells[filled] = format_column(values[filled], places)
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
        return [snn, repr(r.downscale), repr(r.reproj_threshold), r.n_points]

    write_csv(path, CAMPAIGN_COLUMNS,
              ([*cell(r), repr(r.hea), repr(r.miou), r.trials] for r in results))
    if timing_path is not None:
        write_csv(timing_path, CAMPAIGN_COLUMNS[:4] + ["mean_time_ms"],
                  ([*cell(r), format_fixed(r.mean_time_ms, 3)] for r in results))


def _require_finite(path, line: int, **values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise InvariantViolation(f"{name}={value} is not finite", line=line, path=path)


# Largest frame number or track id magnitude the loaders accept: frame and
# id columns are 64-bit integers.
MAX_KEY = 2**62


def _require_key_range(path, line: int, name: str, value: int) -> None:
    if abs(value) > MAX_KEY:
        raise InvariantViolation(f"{name} {value} beyond +-2**62", line=line, path=path)


def load_probe_trajectory(path) -> np.ndarray:
    """Probe CSV: t,x,y,speed (local meters, speed in km/h), all finite.

    Returns the (n, 3) rows ``x, y, speed`` in file order."""
    rows = []
    for line, (t, x, y, speed) in _read_csv_rows(
        path, ["t", "x", "y", "speed"], lambda cells: [*map(float, cells)]
    ):
        _require_finite(path, line, t=t, x=x, y=y, speed=speed)
        rows.append((x, y, speed))
    return np.array(rows, dtype=float).reshape(-1, 3)


def load_candidate_trajectory(path) -> np.ndarray:
    """Candidate CSV: frame,x,y,speed (local meters, smoothed speed km/h),
    all finite, one row per frame, ``|frame|`` at most 2**62.

    Returns the (n, 3) rows ``x, y, speed`` in frame order."""
    rows: dict[int, tuple[float, float, float]] = {}
    for line, (frame, x, y, speed) in _read_csv_rows(
        path,
        ["frame", "x", "y", "speed"],
        lambda cells: (int(cells[0]), *map(float, cells[1:])),
    ):
        _require_finite(path, line, x=x, y=y, speed=speed)
        _require_key_range(path, line, "frame", frame)
        if frame in rows:
            raise InvariantViolation(f"duplicate frame {frame}", line=line, path=path)
        rows[frame] = (x, y, speed)
    return np.array([rows[f] for f in sorted(rows)], dtype=float).reshape(-1, 3)


class LocalTrack(NamedTuple):
    """One vehicle's local-coordinate trajectory, in frame order."""

    frames: np.ndarray  # ascending frame numbers
    x: np.ndarray  # m
    y: np.ndarray  # m
    visible: np.ndarray  # bool


def load_local_trajectories(path) -> dict[int, LocalTrack]:
    """Local-coordinate trajectories CSV: id,frame,x,y (finite) with
    an optional 0/1 visible column (every frame visible when it is absent).

    Returns each vehicle's trajectory, by id.
    """
    rows: dict[int, dict[int, tuple[float, float, bool]]] = {}
    for line, (vid, frame, x, y, vis) in _read_csv_rows(
        path,
        ["id", "frame", "x", "y"],
        lambda cells: (int(cells[0]), int(cells[1]), float(cells[2]), float(cells[3]),
                       _visible(cells[4:], True)),
        optional=["visible"],
    ):
        _require_finite(path, line, x=x, y=y)
        _require_key_range(path, line, "frame", frame)
        track = rows.setdefault(vid, {})
        if frame in track:
            raise InvariantViolation(f"duplicate frame {frame} for id {vid}", line=line, path=path)
        track[frame] = (x, y, vis)
    tracks = {}
    for vid, track in rows.items():
        frames = sorted(track)
        x, y, vis = zip(*map(track.__getitem__, frames))
        tracks[vid] = LocalTrack(np.array(frames, dtype=np.int64), np.array(x), np.array(y),
                                 np.array(vis, dtype=bool))
    return tracks


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
        r.n_samples,
        format_fixed(r.pos_dev_mean_m, 3),
        format_fixed(r.pos_dev_std_m, 3),
        format_fixed(r.speed_diff_mean_kmh, 3),
        format_fixed(r.speed_diff_std_kmh, 3),
        format_fixed(r.traj_length_m, 2),
        format_fixed(r.traj_duration_s, 2),
        r.skipped,
    ]])
