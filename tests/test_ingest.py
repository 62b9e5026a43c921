import io
import json
import re
import shlex
import shutil
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronolint import ingest
from chronolint.ingest import (
    MAX_EPOCH_ABS,
    IngestReport,
    emit_export_stream,
    format_offset,
    normalize_time,
    parse_export_stream,
    parse_offset,
    range_lines,
    read_repository,
)
from chronolint.cli import parse_range
from chronolint.graph import build_history
from chronolint.model import (
    COMMIT_ID_RE,
    CommitRecord,
    GitEnvironmentError,
    GraphError,
    RepositoryError,
)
from helpers import (
    AWKWARD_TEXT,
    assert_reaped,
    build_repo,
    fake_hash,
    git_subcommands,
    keep_only_branch,
    oracle_export_stream,
    oracle_parse_export_stream,
    rec,
    record_processes,
    record_to_object,
    shallow_clone,
    tip_only_repo,
    write_grafts,
    write_raw_commit,
)
from jsonl_differential import (
    EDGE_LINES,
    ID,
    PARENT,
    chunked_table,
    differences,
    line,
    padding,
    whole_table,
)


def jsonl(*objs) -> bytes:
    return b"".join(json.dumps(o).encode() + b"\n" for o in objs)


def minimal_obj(**over):
    obj = {
        "id": "a" * 40,
        "parents": [],
        "author_time": 0,
        "author_tz": "+0000",
        "commit_time": 0,
        "commit_tz": "+0000",
        "author_name": "A",
        "author_email": "a@example.com",
        "message": "m",
        "project": "p",
    }
    obj.update(over)
    return obj


class TestParseExportStream:
    def test_minimal_valid_record(self):
        records, report = parse_export_stream(jsonl(minimal_obj()), "p")
        assert len(records) == 1
        assert report.records_rejected == 0
        assert records[0].id == "a" * 40
        assert records[0].commit_time == 0

    def test_missing_id_rejected(self):
        obj = minimal_obj()
        del obj["id"]
        records, report = parse_export_stream(jsonl(obj), "p")
        assert records == []
        assert report.records_rejected == 1
        assert report.rejects[0] == ("line 1", "missing id")

    def test_malformed_id_rejected(self):
        data = jsonl(minimal_obj(id="A" * 40), minimal_obj())
        records, report = parse_export_stream(data, "p")
        assert [r.id for r in records] == ["a" * 40]
        assert report.rejects == [("line 1", "malformed id")]

    def test_empty_stream(self):
        records, report = parse_export_stream(b"", "p")
        assert records == []
        assert report.records_rejected == 0

    def test_undecodable_record_rejected_stream_continues(self):
        data = b'{"bad": \xff\xfe}\n' + jsonl(minimal_obj())
        records, report = parse_export_stream(data, "p")
        assert len(records) == 1
        assert report.rejects[0][1] == "undecodable bytes"

    def test_bad_offset_rejected(self):
        records, report = parse_export_stream(jsonl(minimal_obj(commit_tz="+2500")), "p")
        assert records == []
        assert "offset" in report.rejects[0][1]

    def test_parsed_plus_rejected_totals(self):
        data = jsonl(minimal_obj(), {"nope": 1}, minimal_obj(id=fake_hash("b")))
        records, report = parse_export_stream(data, "p")
        assert len(records) == 2
        assert report.records_rejected == 1

    def test_open_file_and_bytes_agree(self, tmp_path):
        good = [json.dumps(minimal_obj(id=fake_hash(i))).encode() for i in range(3)]
        missing = minimal_obj()
        del missing["message"]
        data = b"".join([
            good[0] + b"\r\n",                        # CRLF line
            b"\n", b"  \t\r\n",                       # blank lines
            b'{"id": "abc\n',                          # string cut at line end
            b"{not json}\n",
            b'{"bad": "\xff"}\n',                      # undecodable
            json.dumps(missing).encode() + b"\n",
            b"[1, 2]\n",
            good[1] + b"\n",
            good[2],                                   # last line without LF
        ])
        path = tmp_path / "export.jsonl"
        path.write_bytes(data)
        with open(path, "rb") as fh:
            from_file = parse_export_stream(fh, "p")
        from_bytes = parse_export_stream(data, "p")
        assert from_file == from_bytes
        records, report = from_bytes
        assert [r.id for r in records] == [fake_hash(i) for i in range(3)]
        assert len(records) == 3
        assert report.rejects == [
            ("line 4", "invalid JSON: Unterminated string starting at"),
            ("line 5", "invalid JSON: Expecting property name enclosed in double quotes"),
            ("line 6", "undecodable bytes"),
            ("line 7", "missing message"),
            ("line 8", "record is not an object"),
        ]

    def test_bad_zone_rejected_on_every_line(self):
        objs = [minimal_obj(id=fake_hash(i), author_tz="+2500" if i % 2 else "+0100")
                for i in range(6)]
        records, report = parse_export_stream(jsonl(*objs), "p")
        assert [r.author_tz for r in records] == [60, 60, 60]
        assert report.rejects == [
            (f"line {n}", "UTC offset out of range: '+2500'") for n in (2, 4, 6)
        ]

    def test_list_zone_rejected(self):
        data = jsonl(minimal_obj(commit_tz=["+0000"]), minimal_obj())
        records, report = parse_export_stream(data, "p")
        assert len(records) == 1
        assert report.rejects == [("line 1", "malformed UTC offset: ['+0000']")]

    @pytest.mark.parametrize("parent", ["HEAD~1", "A" * 40, "a" * 39, 7, None])
    def test_non_hash_parent_rejected(self, parent):
        data = jsonl(minimal_obj(parents=[fake_hash("p"), parent]), minimal_obj())
        records, report = parse_export_stream(data, "p")
        assert [r.id for r in records] == ["a" * 40]
        assert report.rejects == [("line 1", "malformed parents")]

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="this Python has no integer digit limit")
    def test_overlong_integer_rejected(self):
        data = b'{"id": ' + b"1" * 5000 + b"}\n" + jsonl(minimal_obj())
        records, report = parse_export_stream(data, "p")
        assert len(records) == 1
        assert report.rejects[0][0] == "line 1"
        assert report.rejects[0][1].startswith("invalid JSON: Exceeds the limit")

    def test_deep_nesting_rejected_stream_continues(self):
        data = b"[" * 100_000 + b"\n" + jsonl(minimal_obj())
        records, report = parse_export_stream(data, "p")
        assert [r.id for r in records] == ["a" * 40]
        assert len(report.rejects) == 1
        assert report.rejects[0][0] == "line 1"
        assert report.rejects[0][1].startswith("invalid JSON: maximum recursion depth exceeded")


class TestRanges:
    """Reading an export in byte ranges: the lines, the line count, the rejects."""

    DATA = b'{"a":1}\nnot json\n\n[]\r\nlast'

    @pytest.mark.parametrize("cut", [0, 8, 17, 18, 22, 26])
    def test_ranges_split_the_lines(self, tmp_path, cut):
        path = tmp_path / "e.jsonl"
        path.write_bytes(self.DATA)
        with open(path, "rb") as fh:
            head = list(range_lines(fh, 0, cut))
            tail = list(range_lines(fh, cut, len(self.DATA)))
        assert head + tail == self.DATA.splitlines(keepends=True)

    @pytest.mark.parametrize("cut", [8, 17, 18, 22])
    def test_extend_numbers_rejects_from_the_start(self, tmp_path, cut):
        path = tmp_path / "e.jsonl"
        path.write_bytes(self.DATA)
        _, whole = parse_export_stream(self.DATA)
        with open(path, "rb") as fh:
            _, merged = parse_export_stream(range_lines(fh, 0, cut))
            _, later = parse_export_stream(range_lines(fh, cut, len(self.DATA)))
        merged.extend(later)
        assert merged == whole
        assert whole.lines == 5
        assert [p for p, _ in whole.rejects] == ["line 1", "line 2", "line 4", "line 5"]


class TestValidate:
    """Structural checks on ingested records, made when the history is built."""

    def test_self_parenting(self):
        a = "a" * 40
        records, report = parse_export_stream(jsonl(minimal_obj(id=a, parents=[a])), "p")
        assert report.records_rejected == 0
        with pytest.raises(GraphError, match=f"cycle detected in commit graph involving {a}"):
            build_history(records, "p")

    def test_boundary_parent_collected(self):
        absent = fake_hash("absent")
        b = fake_hash("b")
        records, report = parse_export_stream(jsonl(minimal_obj(id=b, parents=[absent])), "p")
        assert report.records_rejected == 0
        history = build_history(records, "p")
        assert history.order == (b,)
        assert history.commits[b].parents == (absent,)
        assert absent not in history.commits


hashes = st.integers(min_value=0, max_value=10**6).map(fake_hash)
safe_text = st.text(max_size=30)


@st.composite
def export_records(draw):
    cid = fake_hash(("rec", draw(st.integers(0, 10**9))))
    parents = tuple(
        p for p in draw(st.lists(hashes, max_size=3, unique=True)) if p != cid
    )
    return CommitRecord(
        id=cid,
        parents=parents,
        author_time=draw(st.integers(-10**10, 10**10)),
        author_tz=draw(st.integers(-1440, 1440)),
        commit_time=draw(st.integers(-10**10, 10**10)),
        commit_tz=draw(st.integers(-1440, 1440)),
        author_name=draw(safe_text),
        author_email=draw(safe_text),
        message=draw(safe_text),
        project=draw(safe_text),
        files=draw(
            st.one_of(st.none(), st.frozensets(st.text(min_size=1, max_size=8), max_size=4))
        ),
    )


def record_sets(max_size=12):
    return st.lists(export_records(), max_size=max_size, unique_by=lambda r: r.id)


# bytes that JSON and the line layout give meaning to, and two that UTF-8 refuses
MUTATION_BYTES = st.sampled_from(list(b'{}[]":,\\ \t\r\n0159aefAFNIntrulsx-+.eE') + [0xff, 0xc3])


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2**63, 2**63), st.floats(), hashes,
    st.sampled_from(["+0000", "-2359", "+2401", "0100", "A" * 40]), st.text(max_size=5),
    st.lists(st.one_of(hashes, st.integers(), st.text(max_size=3)), max_size=3),
)


@st.composite
def mutated_lines(draw):
    """A valid export line, maybe with one field replaced or removed, after
    zero to three byte-level edits, maybe with its LF."""
    obj = record_to_object(draw(export_records()))
    edit = draw(st.sampled_from(["none", "replace", "remove"]))
    key = draw(st.sampled_from(sorted(obj)))
    if edit == "replace":
        obj[key] = draw(JSON_VALUES)
    elif edit == "remove":
        del obj[key]
    compact = draw(st.booleans())
    data = bytearray(json.dumps(obj, separators=(",", ":") if compact else None).encode())
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(["insert", "delete", "replace", "repeat", "cut"]))
        if edit == "insert":
            data[at:at] = bytes(draw(st.lists(MUTATION_BYTES, min_size=1, max_size=4)))
        elif edit == "delete":
            del data[at:at + draw(st.integers(1, 8))]
        elif edit == "replace" and at < len(data):
            data[at] = draw(MUTATION_BYTES)
        elif edit == "repeat":
            data[at:at] = data[max(0, at - draw(st.integers(1, 20))):at]
        elif edit == "cut":
            del data[at:]
    return bytes(data) + draw(st.sampled_from([b"\n", b""]))


class TestAgainstOneLoadsPerLine:
    """The reader gives what one json.loads call and one check per field gave."""

    @pytest.mark.parametrize("raw", [raw for _, raw in EDGE_LINES],
                             ids=[name for name, _ in EDGE_LINES])
    def test_edge_line(self, raw):
        assert differences(raw + b"\n") == []
        assert differences(raw) == []  # the last line of a file may lack its LF

    def test_whole_table_as_one_stream(self):
        assert differences(whole_table()) == []

    # a differential check, not a latency check
    @settings(max_examples=300, deadline=None)
    @given(mutated_lines())
    def test_mutated_valid_lines(self, data):
        assert differences(data) == []


# the reader's own chunk size, and sizes that put most lines at a chunk's
# first or last slot
CHUNK_SIZES = [ingest.CHUNK_LINES, 1, 2, 3]

# lines a chunk skips, holds, or must give up to the one-object-at-a-time checks
SLOT_LINES = {
    "blank": b"  \t",
    "empty": b"",
    "crlf": padding(-1) + b"\r",
    "files": line(files=["b", "a", "b"]),
    "bad-zone": line(author_tz="+2500"),
    "bad-id": line(id=ID.upper()),
    "bad-parent": line(parents=[PARENT, PARENT[:39]]),
    "bad-json": padding(-2)[:-1],
}


@st.composite
def chunked_streams(draw, chunk):
    """Up to three chunks of valid lines, with edge lines, slot lines and
    mutated lines put in at random places, maybe ending without an LF."""
    lines = [padding(i) for i in range(draw(st.integers(0, 3 * chunk)))]
    odd = st.one_of(
        st.sampled_from([raw for _, raw in EDGE_LINES] + list(SLOT_LINES.values())),
        mutated_lines(),
    )
    for at, raw in draw(st.lists(st.tuples(st.integers(0, len(lines)), odd), max_size=10)):
        lines.insert(at, raw)
    return b"\n".join(lines) + draw(st.sampled_from([b"\n", b""]))


class TestChunks:
    """Lines are checked a chunk of objects at a time, and give what one
    json.loads call and one check per field give, wherever they fall."""

    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    @pytest.mark.parametrize("name", sorted(SLOT_LINES))
    def test_line_at_each_slot(self, chunk, name):
        for at in sorted({0, chunk // 2, chunk - 1, chunk, 2 * chunk + chunk // 2, 3 * chunk - 1}):
            lines = [padding(i) for i in range(3 * chunk)]
            lines[at] = SLOT_LINES[name]
            with mock.patch.object(ingest, "CHUNK_LINES", chunk):
                assert differences(b"\n".join(lines) + b"\n") == []

    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    def test_edge_lines_at_both_ends_of_a_chunk(self, chunk):
        with mock.patch.object(ingest, "CHUNK_LINES", chunk):
            assert differences(chunked_table(chunk)) == []

    def test_every_id_character(self):
        """An id or parent with any one character changed is vouched for by a
        chunk of its own exactly when COMMIT_ID_RE accepts it."""
        characters = [chr(c) for c in range(0x250)] + ["\u0660", "\uff10", "\U0001d7ce"]
        lines = []
        for c in characters:
            lines.append(line(id=ID[:20] + c + ID[21:]))
            lines.append(line(parents=[PARENT, PARENT[:39] + c]))
        data = b"\n".join(lines)
        with mock.patch.object(ingest, "CHUNK_LINES", 1):
            assert differences(data) == []
        records, _ = parse_export_stream(data)
        valid = [c for c in characters if COMMIT_ID_RE.fullmatch(ID[:39] + c)]
        assert len(valid) == 16
        assert len(records) == 2 * len(valid)

    # a differential check, not a latency check
    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_streams(self, chunk, data):
        stream = data.draw(chunked_streams(chunk))
        with mock.patch.object(ingest, "CHUNK_LINES", chunk):
            assert differences(stream) == []

    # a differential check, not a latency check
    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_ranges_joined(self, chunk, data, tmp_path_factory):
        """parse_range over a cut of the stream at line starts, its reports
        joined with IngestReport.extend, reads as the oracle reads the whole."""
        stream = data.draw(chunked_streams(chunk))
        starts = [0] + [m.end() for m in re.finditer(b"\n", stream)]
        cuts = data.draw(st.lists(st.sampled_from(starts), max_size=4))
        bounds = sorted({0, len(stream), *cuts})
        read = data.draw(st.sampled_from([1, 50, ingest.RANGE_READ_BYTES]))
        path = tmp_path_factory.mktemp("ranges") / "export.jsonl"
        path.write_bytes(stream)
        records, report = [], IngestReport()
        with mock.patch.object(ingest, "CHUNK_LINES", chunk), \
                mock.patch.object(ingest, "RANGE_READ_BYTES", read):
            for start, end in zip(bounds, bounds[1:]):
                part, part_report = parse_range(str(path), start, end, "default")
                records += part
                report.extend(part_report)
        expected, expected_rejects = oracle_parse_export_stream(stream, "default")
        assert records == expected
        assert report.rejects == expected_rejects
        assert report.lines == len(io.BytesIO(stream).readlines())
        assert len(records) == len(expected)


class TestRoundTrip:
    # a round-trip identity check, not a latency check
    @settings(max_examples=100, deadline=None)
    @given(record_sets())
    def test_parse_emit_identity(self, records):
        emitted = emit_export_stream(records)
        parsed, report = parse_export_stream(emitted, "unused-default")
        assert report.records_rejected == 0
        assert parsed == records
        assert emit_export_stream(parsed) == emitted

    def test_thousand_records_byte_identical(self):
        records = [
            rec(("bulk", i), commit_epoch=1_500_000_000 + i, message=f"msg {i}")
            for i in range(1000)
        ]
        emitted = emit_export_stream(records)
        parsed, _ = parse_export_stream(emitted, "p")
        assert len(parsed) == 1000
        assert emit_export_stream(parsed) == emitted


@st.composite
def awkward_records(draw):
    """A record of any field values the writer accepts, its strings drawn
    from AWKWARD_TEXT and its ids sometimes not commit ids at all."""
    ids = st.one_of(hashes, AWKWARD_TEXT)
    times, zones = st.integers(-2**63, 2**63), st.integers(-1440, 1440)
    return CommitRecord(
        id=draw(ids),
        parents=tuple(draw(st.lists(ids, max_size=3))),
        author_time=draw(times),
        author_tz=draw(zones),
        commit_time=draw(times),
        commit_tz=draw(zones),
        author_name=draw(AWKWARD_TEXT),
        author_email=draw(AWKWARD_TEXT),
        message=draw(AWKWARD_TEXT),
        project=draw(AWKWARD_TEXT),
        files=draw(st.one_of(st.none(), st.frozensets(AWKWARD_TEXT, max_size=4))),
    )


class TestEmitAgainstJsonDumps:
    """emit_export_stream writes what json.dumps(..., ensure_ascii=True,
    separators=(",", ":")) writes for each record's export object."""

    # a differential check, not a latency check
    @settings(max_examples=300, deadline=None)
    @given(st.lists(awkward_records(), max_size=8))
    def test_awkward_records(self, records):
        assert emit_export_stream(records) == oracle_export_stream(records)

    def test_no_records(self):
        assert emit_export_stream([]) == b""


class TestOffsets:
    def test_normalize_utc(self):
        assert normalize_time(1_600_000_000, "+0000") == (1_600_000_000, 0)

    def test_normalize_negative(self):
        assert normalize_time(1_600_000_000, "-0530") == (1_600_000_000, -330)

    def test_out_of_bound_offset(self):
        with pytest.raises(ValueError):
            parse_offset("+2500")
        with pytest.raises(ValueError):
            parse_offset("0530")
        assert parse_offset("+2400") == 1440

    def test_epoch_sanity_bounds(self):
        assert normalize_time(MAX_EPOCH_ABS - 1, "+0000") == (MAX_EPOCH_ABS - 1, 0)
        assert normalize_time(-MAX_EPOCH_ABS, "+0000") == (-MAX_EPOCH_ABS, 0)
        bad = (MAX_EPOCH_ABS, -MAX_EPOCH_ABS - 1, True, 1.0, "0", None)
        for epoch in bad:
            with pytest.raises(ValueError):
                normalize_time(epoch, "+0000")
        data = jsonl(*(minimal_obj(author_time=epoch) for epoch in bad),
                     minimal_obj(commit_time=MAX_EPOCH_ABS))
        records, report = parse_export_stream(data, "p")
        assert records == []
        assert report.records_rejected == len(bad) + 1

    def test_offset_bounds(self):
        assert normalize_time(0, "+2400") == (0, 1440)
        assert normalize_time(0, "-2400") == (0, -1440)
        for zone in ("+2401", "-2401", 0, None):
            with pytest.raises(ValueError):
                normalize_time(0, zone)
        data = jsonl(minimal_obj(author_tz="-2401"), minimal_obj(commit_tz=0))
        records, report = parse_export_stream(data, "p")
        assert records == []
        assert report.records_rejected == 2

    def test_format_offset(self):
        assert [format_offset(m) for m in (0, -330, 90, 1440, -1440)] == [
            "+0000", "-0530", "+0130", "+2400", "-2400"
        ]
        assert all(parse_offset(format_offset(m)) == m for m in range(-1440, 1441))

    def test_offset_text_is_exact_ascii(self):
        assert parse_offset("+0530") == parse_offset("+0530") == 330
        for text in ("+0530\n", "+\u0660\u0665\u0663\u0660", " +0530", "+05300"):
            with pytest.raises(ValueError, match="malformed UTC offset"):
                parse_offset(text)


class TestReadRepository:
    def test_single_commit(self, tmp_path):
        repo = tmp_path / "r"
        build_repo(repo, [{"key": "a", "commit_epoch": 1_600_000_000}])
        records, report = read_repository(str(repo), "proj")
        assert len(records) == 1
        assert records[0].author_time == 1_600_000_000
        assert records[0].commit_time == 1_600_000_000
        assert len(records) == 1

    def test_merge_commit_parent_order(self, tmp_path):
        repo = tmp_path / "r"
        shas = build_repo(repo, [
            {"key": "a", "commit_epoch": 100_000},
            {"key": "b", "commit_epoch": 200_000, "parents": ["a"]},
            {"key": "c", "commit_epoch": 300_000, "parents": ["a"]},
            {"key": "m", "commit_epoch": 400_000, "parents": ["b", "c"],
             "message": "Merge branch"},
        ])
        records, _ = read_repository(str(repo), "proj")
        merge = next(r for r in records if r.id == shas["m"])
        assert merge.parents == (shas["b"], shas["c"])

    def test_offset_preserved(self, tmp_path):
        repo = tmp_path / "r"
        build_repo(repo, [{"key": "a", "commit_epoch": 1_600_000_000, "tz": "-0530"}])
        records, _ = read_repository(str(repo), "proj")
        assert (records[0].commit_time, records[0].commit_tz) == (1_600_000_000, -330)

    def test_count_matches_rev_list(self, tmp_path):
        repo = tmp_path / "r"
        plans = [{"key": 0, "commit_epoch": 1_500_000_000}]
        for i in range(1, 500):
            plans.append({
                "key": i,
                "commit_epoch": 1_500_000_000 + i * 60,
                "parents": [i - 1],
            })
        build_repo(repo, plans)
        records, _ = read_repository(str(repo), "proj")
        out = subprocess.run(
            ["git", "-C", str(repo), "rev-list", "--all", "--count"],
            capture_output=True, check=True,
        )
        assert len(records) == int(out.stdout) == 500

    def test_repeated_reads_identical(self, tmp_path):
        repo = tmp_path / "r"
        build_repo(repo, [
            {"key": "a", "commit_epoch": 100_000},
            {"key": "b", "commit_epoch": 200_000, "parents": ["a"]},
        ])
        first, _ = read_repository(str(repo), "proj")
        second, _ = read_repository(str(repo), "proj")
        assert first == second

    def test_messages_with_delimiter_bytes(self, tmp_path):
        repo = tmp_path / "r"
        messages = {
            "a": "multi\nline\n\nwith trailing newline\n",
            "b": "has\x1eRS and\x1fUS bytes",
        }
        shas = build_repo(repo, [
            {"key": "a", "commit_epoch": 100_000, "message": messages["a"]},
            {"key": "b", "commit_epoch": 200_000, "parents": ["a"], "message": messages["b"]},
        ])
        records, report = read_repository(str(repo), "proj")
        assert report.records_rejected == 0
        assert {r.id: r.message for r in records} == {shas[k]: m for k, m in messages.items()}

    def test_root_before_epoch_in_local_time(self, tmp_path):
        repo = tmp_path / "r"
        build_repo(repo, [{"key": "a", "commit_epoch": 1_600_000_000}])
        root = write_raw_commit(repo, (
            "author A <a@example.com> 730 -0500\n"
            "committer A <a@example.com> 730 -0500\n"
        ), "early root\n", "early")
        records, report = read_repository(str(repo), "proj")
        assert report.records_rejected == 0
        early = next(r for r in records if r.id == root)
        assert early.author_time == early.commit_time == 730
        assert early.author_tz == early.commit_tz == -300

    def test_signed_commit_headers_skipped(self, tmp_path):
        repo = tmp_path / "r"
        shas = build_repo(repo, [{"key": "a", "commit_epoch": 1_600_000_000}])
        signed = write_raw_commit(repo, (
            f"parent {shas['a']}\n"
            "author Ann <ann@example.com> 1600000100 +0200\n"
            "committer Bob <bob@example.com> 1600000200 -0130\n"
            "gpgsig -----BEGIN PGP SIGNATURE-----\n"
            " \n"
            " iQEzBAABCAAdFiEE\n"
            " -----END PGP SIGNATURE-----\n"
        ), "signed change\n\nbody\n", "signed")
        records, report = read_repository(str(repo), "proj")
        assert report.records_rejected == 0
        r = next(r for r in records if r.id == signed)
        assert r.parents == (shas["a"],)
        assert (r.author_name, r.author_email) == ("Ann", "ann@example.com")
        assert (r.author_time, r.author_tz) == (1_600_000_100, 120)
        assert (r.commit_time, r.commit_tz) == (1_600_000_200, -90)
        assert r.message == "signed change\n\nbody\n"

    def test_malformed_header_rejects_only_that_commit(self, tmp_path):
        repo = tmp_path / "r"
        shas = build_repo(repo, [{"key": "a", "commit_epoch": 1_600_000_000}])
        bad = write_raw_commit(repo, "author A <a@example.com> 1600000100 +0000\n",
                               "no committer\n", "bad")
        records, report = read_repository(str(repo), "proj")
        assert [r.id for r in records] == [shas["a"]]
        assert report.rejects == [(bad, "malformed commit header")]
        assert (len(records), report.records_rejected) == (1, 1)

    def test_first_parent_and_branches_narrow_walk(self, tmp_path):
        repo = tmp_path / "r"
        shas = build_repo(repo, [
            {"key": "a", "commit_epoch": 100_000},
            {"key": "b", "commit_epoch": 200_000, "parents": ["a"]},
            {"key": "c", "commit_epoch": 300_000, "parents": ["a"]},
            {"key": "m", "commit_epoch": 400_000, "parents": ["b", "c"]},
        ])

        def ids(**walk):
            records, _ = read_repository(str(repo), "proj", **walk)
            return {r.id for r in records}

        assert ids() == set(shas.values())
        # build_repo names the refs c1..c4; a value without a glob character
        # is one branch name, a value with one is a glob
        assert ids(first_parent=True, branches="c4") == {shas["a"], shas["b"], shas["m"]}
        assert ids(first_parent=True, branches="c[4]") == {shas["a"], shas["b"], shas["m"]}
        assert ids(branches="c4") == set(shas.values())
        assert ids(branches="c3") == {shas["a"], shas["c"]}
        assert ids(branches="c[3]") == {shas["a"], shas["c"]}
        assert ids(branches="c[23]") == {shas["a"], shas["b"], shas["c"]}
        assert ids(branches="c?") == set(shas.values())
        with pytest.raises(RepositoryError, match="git rev-list failed"):
            ids(branches="main")

    @staticmethod
    def cut_refused(path, missing):
        """The match of read_repository's refusal of a cut history at path."""
        return f"^shallow history refused in {re.escape(str(path))}: " \
               f"parent {missing} was not read$"

    def test_shallow_clone_refused(self, tmp_path):
        shas = tip_only_repo(tmp_path / "src")
        repo = tmp_path / "r"
        shallow_clone(tmp_path / "src", repo, "c3")
        with pytest.raises(RepositoryError, match=self.cut_refused(repo, shas["b"])):
            read_repository(str(repo), "proj")

    def test_grafts_that_drop_a_parent_are_not_followed(self, tmp_path):
        repo = tmp_path / "r"
        shas = tip_only_repo(repo)
        write_grafts(repo, shas["c"])  # git would read c as a root
        records, report = read_repository(str(repo), "proj")
        assert [(r.id, r.parents) for r in records] == [
            (shas["a"], ()), (shas["b"], (shas["a"],)), (shas["c"], (shas["b"],))]
        assert report.rejects == []

    def test_grafts_that_drop_a_second_parent(self, tmp_path):
        """m merges b and c, and the grafts line keeps only b: both walks
        read the history as stored, c included."""
        repo = tmp_path / "r"
        shas = build_repo(repo, [
            {"key": "a", "commit_epoch": 1_400_000_000},
            {"key": "b", "commit_epoch": 1_400_001_000, "parents": ["a"]},
            {"key": "c", "commit_epoch": 1_400_002_000, "parents": ["a"]},
            {"key": "m", "commit_epoch": 1_400_003_000, "parents": ["b", "c"]},
        ])
        keep_only_branch(repo, "c4")
        write_grafts(repo, f"{shas['m']} {shas['b']}")
        records, report = read_repository(str(repo), "proj", first_parent=True)
        assert sorted(r.id for r in records) == sorted(shas[k] for k in "abm")
        assert report.rejects == []
        records, report = read_repository(str(repo), "proj")
        assert sorted(r.id for r in records) == sorted(shas.values())
        assert report.rejects == []

    def test_rejected_parent_does_not_cut_the_history(self, tmp_path):
        """The middle commit's zone +2500 is rejected, but cat-file printed
        it, so its child is read with the root."""
        repo = tmp_path / "r"
        shas = build_repo(repo, [{"key": "a", "commit_epoch": 1_400_000_000}])
        middle = write_raw_commit(repo, (
            f"parent {shas['a']}\n"
            "author A <a@example.com> 1400002000 +2500\n"
            "committer A <a@example.com> 1400002000 +2500\n"
        ), "out of range zone\n", "middle")
        tip = write_raw_commit(repo, (
            f"parent {middle}\n"
            "author A <a@example.com> 1400001000 +0000\n"
            "committer A <a@example.com> 1400001000 +0000\n"
        ), "tip\n", "tip")
        keep_only_branch(repo, "tip")
        records, report = read_repository(str(repo), "proj")
        assert [r.id for r in records] == [shas["a"], tip]
        assert report.rejects == [(middle, "bad timestamp: UTC offset out of range: '+2500'")]

    def test_with_files(self, tmp_path):
        repo = tmp_path / "r"
        shas = build_repo(repo, [
            {"key": "a", "commit_epoch": 100_000, "files": {"a.txt": "a", "d/e.txt": "e"}},
            {"key": "b", "commit_epoch": 200_000, "parents": ["a"], "files": {"b.txt": "b"}},
            {"key": "c", "commit_epoch": 300_000, "parents": ["a"], "files": {"c.txt": "c"}},
            {"key": "m", "commit_epoch": 400_000, "parents": ["b", "c"],
             "files": {"m.txt": "m"}},
            {"key": "e", "commit_epoch": 500_000, "parents": ["m"]},
            {"key": "f", "commit_epoch": 600_000, "parents": ["e"], "files": {"f.txt": "f"}},
        ])
        records, _ = read_repository(str(repo), "proj", with_files=True)
        files = {r.id: r.files for r in records}
        assert files == {
            shas["a"]: frozenset({"a.txt", "d/e.txt"}),
            shas["b"]: frozenset({"b.txt"}),
            shas["c"]: frozenset({"c.txt"}),
            shas["m"]: frozenset(),
            shas["e"]: frozenset(),
            shas["f"]: frozenset({"f.txt"}),
        }
        plain, _ = read_repository(str(repo), "proj")
        assert all(r.files is None for r in plain)

    def test_failed_walk_names_rev_list(self, tmp_path):
        repo = tmp_path / "r"
        build_repo(repo, [{"key": "a", "commit_epoch": 100_000}])
        (repo / ".git" / "refs" / "heads" / "broken").write_text("1" * 40 + "\n")
        with pytest.raises(RepositoryError, match="git rev-list failed in .*bad object"):
            read_repository(str(repo), "proj")

    def test_missing_repo_errors(self, tmp_path):
        with pytest.raises(RepositoryError):
            read_repository(str(tmp_path / "nope"), "proj")

    @pytest.mark.parametrize("failure", ["missing-repo", "unreadable-output"])
    def test_failure_reaps_git_and_closes_files(self, tmp_path, monkeypatch, failure):
        def unreadable(stream, path, report):
            raise RepositoryError(f"git cat-file: unexpected output in {path}")

        repo = tmp_path / "r"
        if failure == "missing-repo":
            expected = "git cat-file failed in"
        else:
            build_repo(repo, [{"key": "a", "commit_epoch": 100_000},
                              {"key": "b", "commit_epoch": 200_000, "parents": ["a"]}])
            monkeypatch.setattr(ingest, "_read_commits", unreadable)
            expected = "git cat-file: unexpected output"
        started = record_processes(monkeypatch)
        with pytest.raises(RepositoryError, match=expected):
            read_repository(str(repo), "proj")
        assert git_subcommands(started) == ["rev-list", "cat-file"]
        assert_reaped(started)

    def test_stream_not_of_cat_file_entries_names_the_repository(self):
        stream = io.BytesIO(b"fatal: not a cat-file entry\n")
        with pytest.raises(RepositoryError,
                           match="^git cat-file: unexpected output in some/repo: "):
            ingest._read_commits(stream, "some/repo", ingest.IngestReport())

    def test_failed_diff_tree_names_it_and_reaps_git(self, tmp_path, monkeypatch):
        repo = tmp_path / "r"
        build_repo(repo, [{"key": "a", "commit_epoch": 100_000, "files": {"a.txt": "a"}}])
        wrapper = tmp_path / "git-wrapper"
        wrapper.write_text(
            "#!/bin/sh\n"
            'for arg; do [ "$arg" = diff-tree ] && { echo "no diffs here" >&2; exit 1; }; done\n'
            f'exec {shlex.quote(shutil.which("git"))} "$@"\n'
        )
        wrapper.chmod(0o755)
        monkeypatch.setenv("CHRONOLINT_GIT", str(wrapper))
        started = record_processes(monkeypatch)
        with pytest.raises(RepositoryError,
                           match=f"git diff-tree failed in {re.escape(str(repo))}: no diffs here"):
            read_repository(str(repo), "proj", with_files=True)
        assert git_subcommands(started) == ["rev-list", "cat-file", "diff-tree"]
        assert_reaped(started)

    def test_git_override_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHRONOLINT_GIT", str(tmp_path / "no-such-git"))
        with pytest.raises(GitEnvironmentError):
            read_repository(str(tmp_path), "proj")
