"""The JSONL reader against the one-json.loads-per-line oracle, on edge lines.

Each entry of EDGE_LINES is one export line (its LF is added when the table
is read). Both readers must give the same records, each a CommitRecord, the
same rejects and the same line count, for every line alone, for the whole
table as one stream, and for a stream longer than one of the reader's chunks
with each edge line at a chunk's first and last slot. The reader leans on
``JSONDecoder().scan_once`` and on the text of json.loads' errors, both of
which can change between Python versions, so this file also runs as a
stdlib-only script under any interpreter:

    PYTHONPATH=src:tests python tests/jsonl_differential.py

It prints the counts and exits 1 on the first difference.
"""

from __future__ import annotations

import io
import json
import sys

from chronolint.ingest import CHUNK_LINES, parse_export_stream
from chronolint.model import CommitRecord
from helpers import fake_hash, oracle_parse_export_stream

ID, PARENT = fake_hash("differential-id"), fake_hash("differential-parent")


def line(**over) -> bytes:
    """A valid compact export line, with fields replaced or (for None) removed."""
    obj = {
        "id": ID, "parents": [PARENT],
        "author_time": 1_500_000_000, "author_tz": "+0100",
        "commit_time": 1_500_000_060, "commit_tz": "-0530",
        "author_name": "A", "author_email": "a@example.com",
        "message": "fix é", "project": "p",
    }
    obj.update(over)
    obj = {k: v for k, v in obj.items() if v is not None}
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


BASE = line()

EDGE_LINES: list[tuple[str, bytes]] = [
    ("valid", BASE),
    ("valid-spaced", json.dumps(json.loads(BASE)).encode()),
    ("valid-non-ascii-raw", json.dumps(json.loads(BASE), ensure_ascii=False).encode()),
    # layout
    ("leading-spaces", b"  " + BASE),
    ("trailing-spaces", BASE + b"  "),
    ("cr-before-lf", BASE + b"\r"),
    ("tab-and-cr", b"\t" + BASE + b" \r"),
    ("trailing-json-whitespace", BASE + b" \t\r \r"),
    # whitespace to str.isspace, but not to JSON
    ("trailing-vertical-tab", BASE + b"\x0b"),
    ("trailing-form-feed", BASE + b" \x0c"),
    ("trailing-no-break-space", BASE + "\u00a0".encode()),
    ("utf8-bom", b"\xef\xbb\xbf" + BASE),
    ("trailing-garbage", BASE + b"x"),
    ("two-objects", BASE + b" " + BASE),
    ("cut-line", BASE[:-7]),
    ("cut-inside-string", BASE[:BASE.index(b'"fix') + 3]),
    ("blank", b"   \t"),
    ("undecodable", BASE.replace(b"A", b"\xff", 1)),
    ("array", b"[1, 2]"),
    ("string", b'"record"'),
    ("null", b"null"),
    ("number", b"5"),
    ("deep-nesting", b"[" * 100_000),
    # each invalid alone, though joined into an array they read as three objects
    ("unterminated-string", b'{"a":"x}'),
    ("lone-quote-key", b'{"}'),
    ("comma-joined", b'{"c":1},{"d":2}'),
    # JSON values
    ("nan-epoch", BASE.replace(b"1500000000", b"NaN")),
    ("infinity-epoch", BASE.replace(b"1500000060", b"-Infinity")),
    ("duplicate-key-last-wins", b'{"id":"bad",' + BASE[1:]),
    ("duplicate-key-bad-last", BASE[:-1] + b',"id":"bad"}'),
    ("overlong-integer", BASE.replace(b"1500000000", b"1" * 5000)),
    ("exponent-epoch", BASE.replace(b"1500000000", b"15e8")),
    ("escaped-key", BASE.replace(b'"message"', b'"mess\\u0061ge"')),
    ("control-char-in-string", BASE.replace(b'"A"', b'"A\tB"')),
    # times
    ("true-epoch", line(author_time=True)),
    ("float-epoch", line(author_time=1.5)),
    ("epoch-2-62", line(commit_time=2**62)),
    ("epoch-below-bound", line(commit_time=-2**62 - 1)),
    ("epoch-lowest", line(author_time=-2**62)),
    ("epoch-highest", line(author_time=2**62 - 1)),
    ("string-epoch", line(author_time="1500000000")),
    ("null-epoch", BASE.replace(b"1500000000", b"null")),
    ("zone-2500", line(author_tz="+2500")),
    ("zone-2400", line(author_tz="+2400")),
    ("zone-minutes-60", line(commit_tz="-0560")),
    ("zone-list", line(author_tz=["+0100"])),
    ("zone-object", line(commit_tz={"tz": "+0100"})),
    ("zone-arabic-indic-digits", line(author_tz="+٠٥٣٠")),
    ("zone-unsigned", line(author_tz="0530")),
    ("zone-number", line(commit_tz=100)),
    ("zone-trailing-lf", line(author_tz="+0100\n")),
    # ids
    ("uppercase-id", line(id=ID.upper())),
    ("id-39-chars", line(id=ID[:39])),
    ("id-number", line(id=5)),
    ("uppercase-parent", line(parents=[PARENT.upper()])),
    ("parent-39-chars", line(parents=[ID, PARENT[:39]])),
    ("parent-number", line(parents=[PARENT, 5])),
    ("parents-string", line(parents=PARENT)),
    ("parents-object", line(parents={"p": PARENT})),
    ("no-parents", line(parents=[])),
    ("merge-parents", line(parents=[PARENT, fake_hash("other")])),
    # missing fields
    ("missing-id", line(id=None)),
    ("missing-message", line(message=None)),
    ("missing-project", line(project=None)),
    ("empty-object", b"{}"),
    # other fields
    ("name-number", line(author_name=5)),
    ("email-null", BASE.replace(b'"a@example.com"', b"null")),
    ("message-list", line(message=["m"])),
    ("project-number", line(project=7)),
    ("project-null", BASE.replace(b'"p"', b"null")),
    ("files-null", BASE[:-1] + b',"files":null}'),
    ("files-empty", line(files=[])),
    ("files-repeated", line(files=["b", "a", "b"])),
    ("files-string", line(files="a")),
    ("files-number-entry", line(files=["a", 1])),
    ("files-nested-list", line(files=[["a"]])),
    ("files-object", line(files={"a": 1})),
]


def differences(data: bytes) -> list[str]:
    """Where the reader and the oracle disagree on one export; [] if nowhere."""
    records, report = parse_export_stream(data, "default")
    expected, expected_rejects = oracle_parse_export_stream(data, "default")
    found = []
    if records != expected:
        found.append(f"records {records!r} != {expected!r}")
    if not all(type(r) is CommitRecord for r in records):
        found.append(f"not every record is a CommitRecord: {records!r}")
    if report.rejects != expected_rejects:
        found.append(f"rejects {report.rejects!r} != {expected_rejects!r}")
    if (len(records), report.records_rejected) != (len(expected), len(expected_rejects)):
        found.append(f"counts {len(records)}, {report.records_rejected}")
    if report.lines != len(io.BytesIO(data).readlines()):
        found.append(f"line count {report.lines}")
    return found


def whole_table() -> bytes:
    return b"".join(raw + b"\n" for _, raw in EDGE_LINES)


def padding(i: int) -> bytes:
    """The i-th of a run of valid lines, each with its own id, times and message."""
    return line(id=fake_hash(("padding", i)), parents=[fake_hash(("padding", i - 1))],
                author_time=1_400_000_000 + i, commit_time=1_400_000_100 + i,
                message=f"padding {i}")


def is_object(raw: bytes) -> bool:
    """Whether the reader holds this line's value in a chunk: an object."""
    try:
        return type(json.loads(raw.decode("utf-8"))) is dict
    except (ValueError, RecursionError):  # undecodable, bad JSON, or nested too deep
        return False


def chunked_table(chunk: int = CHUNK_LINES) -> bytes:
    """Every edge line at the first slot of a chunk of chunk objects, then
    again at the last slot, with valid lines between them."""
    out, objects = [], 0

    def pad_to(slot: int) -> None:
        nonlocal objects
        while objects % chunk != slot:
            out.append(padding(len(out)))
            objects += 1

    for _, raw in EDGE_LINES:
        for slot in (0, chunk - 1):
            pad_to(slot)
            out.append(raw)
            objects += is_object(raw)
    pad_to(0)
    return b"".join(raw + b"\n" for raw in out)


def main() -> int:
    for name, raw in EDGE_LINES:
        for data in (raw + b"\n", raw):  # the last line of a file may lack its LF
            found = differences(data)
            if found:
                print(f"{name}: {'; '.join(found)}")
                return 1
    for name, data in (("whole table", whole_table()), ("chunked table", chunked_table())):
        found = differences(data)
        if found:
            print(f"{name}: {'; '.join(found)}")
            return 1
    records, rejects = oracle_parse_export_stream(whole_table(), "default")
    chunked, chunked_rejects = oracle_parse_export_stream(chunked_table(), "default")
    print(f"Python {sys.version.split()[0]}: {len(EDGE_LINES)} edge lines, "
          f"{len(records)} records and {len(rejects)} rejects, identical in both readers; "
          f"at each end of a {CHUNK_LINES}-object chunk, {len(chunked)} records and "
          f"{len(chunked_rejects)} rejects, identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
