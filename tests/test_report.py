import io
import itertools
import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from chronolint.detect import DetectorConfig, detect_old, run_all_detectors
from chronolint.graph import build_history
from chronolint.model import AnomalyKind, AnomalyRecord
from chronolint.report import (
    csv_tables,
    cutoff_table,
    default_stopwords,
    emit,
    emit_anomaly_stream,
    parse_anomaly_stream,
    ranked_tokens,
    summarize,
    tally,
    token_frequencies,
    top_n,
)
from helpers import AWKWARD_TEXT, fake_hash, oracle_anomaly_stream, rec, utc_epoch

CFG = DetectorConfig(future_reference=utc_epoch(2019, 10, 31))
INTS = st.integers(-2**63, 2**63)


@st.composite
def awkward_rows(draw):
    """Anomalies and their (project, commit id) -> record map, every string
    drawn from AWKWARD_TEXT; a commit may have several rows, and some have
    no record."""
    anomalies, commits = [], {}
    for i in range(draw(st.integers(0, 5))):
        commit = rec(("row", i), project=draw(AWKWARD_TEXT), message=draw(AWKWARD_TEXT),
                     author_name=draw(AWKWARD_TEXT), author_email=draw(AWKWARD_TEXT))
        if draw(st.booleans()):
            commits[(commit.project, commit.id)] = commit
        for kind in draw(st.lists(st.sampled_from(AnomalyKind), min_size=1, max_size=3)):
            anomalies.append(AnomalyRecord(
                kind, commit.id, commit.project, draw(INTS), draw(st.integers(-1440, 1440)),
                draw(st.none() | INTS), draw(st.none() | AWKWARD_TEXT), draw(st.none() | INTS),
            ))
    return anomalies, commits


def anomaly(seed, kind=AnomalyKind.OUT_OF_ORDER_PARENT, project="proj",
            epoch=1_500_000_000):
    return AnomalyRecord(
        kind=kind, commit_id=fake_hash(seed), project=project, observed=epoch
    )


class TestSummarize:
    def test_empty_anomaly_set(self):
        report = summarize({"p": 10}, tally([]))
        assert report.totals == {"commits": 10, "projects": 1}
        assert all(s["count"] == 0 for s in report.anomalies.values())

    def test_both_denominators(self):
        corpus = {
            "p1": [rec(("p1", i), project="p1") for i in range(50)],
            "p2": [rec(("p2", i), project="p2") for i in range(50)],
        }
        flagged = corpus["p1"][0]
        report = summarize(
            {p: len(recs) for p, recs in corpus.items()},
            tally([AnomalyRecord(kind=AnomalyKind.ZERO_EPOCH, commit_id=flagged.id,
                                 project="p1", observed=0)]),
        )
        stats = report.anomalies["zero_epoch"]
        assert stats["count"] == 1
        assert stats["corpus_percent"] == pytest.approx(0.01)
        assert stats["affected_percent"] == pytest.approx(0.02)
        assert stats["corpus_denominator"] == 100
        assert stats["affected_denominator"] == 50

    def test_planted_bookkeeping(self):
        rng = random.Random(17)
        corpus = {}
        expected = 0
        for p in range(5):
            name = f"p{p}"
            records = []
            for i in range(40):
                zero = rng.random() < 0.1
                if zero:
                    expected += 1
                records.append(
                    rec((name, i), commit_epoch=0 if zero else 1_500_000_000 + i,
                        project=name)
                )
            corpus[name] = records
        anomalies = set()
        for name, records in corpus.items():
            anomalies |= detect_old(build_history(records, name), CFG)
        report = summarize({p: len(recs) for p, recs in corpus.items()}, tally(anomalies))
        assert report.anomalies["zero_epoch"]["count"] == expected
        assert report.anomalies["zero_epoch"]["corpus_percent"] == expected / 200


class TestCutoffTable:
    def test_single_year_distribution(self):
        anomalies = [anomaly(("c", i), epoch=utc_epoch(2012, 6, 1) + i)
                     for i in range(10)]
        rows = {r.year: r.percent_removed for r in cutoff_table(tally(anomalies), [2011, 2012])}
        assert rows[2012] == 1.0
        assert rows[2011] == 0.0

    def test_rows_sorted_descending(self):
        rows = cutoff_table(tally([anomaly("x")]), [2000, 2010, 2005])
        assert [r.year for r in rows] == [2010, 2005, 2000]

    def test_monotone_on_random_input(self):
        rng = random.Random(23)
        anomalies = [anomaly(("m", i), epoch=rng.randint(0, 2 * 10**9))
                     for i in range(200)]
        rows = cutoff_table(tally(anomalies), range(1970, 2035))
        percents = [r.percent_removed for r in rows]  # years descending
        assert all(a >= b for a, b in zip(percents, percents[1:]))

    def test_planted_fractions_exact(self):
        per_year = {2010: 5, 2012: 20, 2013: 50, 2014: 25}
        anomalies = []
        for year, count in per_year.items():
            for i in range(count):
                anomalies.append(anomaly((year, i), epoch=utc_epoch(year, 3, 1) + i))
        total = sum(per_year.values())
        rows = {r.year: r.percent_removed for r in
                cutoff_table(tally(anomalies), sorted(per_year))}
        running = 0
        for year in sorted(per_year):
            running += per_year[year]
            assert rows[year] == pytest.approx(running / total)


class TestTopN:
    def test_single_project(self):
        rows = top_n(tally([anomaly("a", project="only")]), key="project")
        assert rows == [
            {"key": "only", "count": 1, "share": 1.0, "cumulative_share": 1.0}
        ]

    def test_tie_break_by_key(self):
        anomalies = [anomaly(("t", i), project=p) for i, p in
                     enumerate(["beta", "alpha"])]
        rows = top_n(tally(anomalies), key="project")
        assert [r["key"] for r in rows] == ["alpha", "beta"]

    def test_cumulative_reaches_one(self):
        anomalies = [anomaly(("u", i), project=f"p{i % 3}") for i in range(9)]
        rows = top_n(tally(anomalies), key="project", n=10)
        assert rows[-1]["cumulative_share"] == pytest.approx(1.0)

    def test_author_merge_by_email(self):
        authors = {
            ("proj", fake_hash(("au", i))): ("Ann" if i % 2 else "A. Nonymous",
                                             "ann@example.com")
            for i in range(4)
        }
        anomalies = [anomaly(("au", i)) for i in range(4)]
        rows = top_n(tally(anomalies, authors), key="author")
        assert len(rows) == 1
        assert rows[0]["count"] == 4
        assert "<ann@example.com>" in rows[0]["key"]

    def test_empty_name_rendered(self):
        authors = {("proj", fake_hash("nn")): ("", "ghost@example.com")}
        rows = top_n(tally([anomaly("nn")], authors), key="author")
        assert rows[0]["key"] == "(no name) <ghost@example.com>"

    def test_no_rows_rejected(self):
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            top_n(tally([anomaly("a")]), key="project", n=0)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="^unknown ranking key: 'email'$"):
            top_n(tally([anomaly("a")]), key="email")

    def test_planted_top_share(self):
        # 20 heavy projects carrying 21% of flagged commits
        anomalies = []
        i = 0
        for p in range(20):
            for _ in range(21):
                anomalies.append(anomaly(("share", i), project=f"heavy{p:02d}"))
                i += 1
        for j in range(1580):
            anomalies.append(anomaly(("share", i), project=f"light{j}"))
            i += 1
        rows = top_n(tally(anomalies), key="project", n=20)
        assert rows[-1]["cumulative_share"] == pytest.approx(0.21)


class TestTokens:
    def test_stopword_removal(self):
        counts = token_frequencies(["Merge the the branch"], {"the"})
        assert counts == {"merge": 1, "branch": 1}

    def test_one_string_refused(self):
        """A lone message or stop word would be read as its characters, so
        either is refused."""
        with pytest.raises(TypeError, match="^messages "):
            token_frequencies("merge branch", {"the"})
        with pytest.raises(TypeError, match="^stopwords "):
            token_frequencies(["merge the branch"], "the")
        assert token_frequencies(["merge the branch"], ["the"]) == {"merge": 1, "branch": 1}

    def test_composite_tokens_survive(self):
        counts = token_frequencies(
            ["git-svn-id: https://svn.example.com sync external/ tree"], {"https"}
        )
        assert counts["git-svn-id"] == 1
        assert counts["external/"] == 1

    def test_matches_one_pass_tally(self):
        rng = random.Random(31)
        vocab = ["fix", "merge", "the", "a", "update", "git-svn-id", "bug/123"]
        messages = [" ".join(rng.choices(vocab, k=rng.randint(1, 10)))
                    for _ in range(50)]
        stop = {"the", "a"}
        expected = {}
        for m in messages:
            for token in m.lower().split():
                if token not in stop:
                    expected[token] = expected.get(token, 0) + 1
        assert token_frequencies(messages, stop) == expected

    def test_bundled_stopword_list(self):
        stop = default_stopwords()
        assert "the" in stop and "merge" not in stop

    def test_matches_per_token_loop(self):
        # the per-token loop the counter replaced, kept as the reference
        def reference(messages, stop):
            counts = {}
            for message in messages:
                for token in re.findall(r"[0-9a-z/_-]+", message.lower()):
                    if token in stop or not any(ch.isalnum() for ch in token):
                        continue
                    counts[token] = counts.get(token, 0) + 1
            return counts

        rng = random.Random(41)
        vocab = ["İstanbul", "İ", "FIX", "the", "a", "of", "--", "/", "_/_", "-x-",
                 "git-svn-id:", "bug/42", "Merge", "ünïcode", "ǅ", "ﬁle", "...", "x_y"]
        messages = ["", "İ", "--- / _ -", "The the THE", "İİ--İ"] + [
            rng.choice(["", "\n", " ", "\t", "."]).join(rng.choices(vocab, k=rng.randint(0, 12)))
            for _ in range(300)
        ]
        for stop in ({"the", "a", "of"}, set(), default_stopwords()):
            assert token_frequencies(messages, stop) == reference(messages, stop)

    def test_ranked_ordering(self):
        ranked = ranked_tokens({"b": 2, "a": 2, "c": 5})
        assert ranked == [("c", 5), ("a", 2), ("b", 2)]


class TestEmit:
    def build(self):
        report = summarize({"p": 3}, tally([anomaly("e0", project="p")]))
        report.meta = {"tool_version": "0.1.0"}
        report.cutoff_table = cutoff_table(tally([anomaly("e0")]), [2017, 2018])
        report.tokens = [("fix", 3)]
        report.fingerprints = {"git-svn-id": 0}
        return report

    def test_json_deterministic(self):
        report = self.build()
        assert emit(report, "json") == emit(report, "json")
        assert emit(report, "json").endswith(b"\n")
        assert b"\r\n" not in emit(report, "json")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit(self.build(), "yaml")

    def test_csv_row_counts(self):
        report = self.build()
        tables = csv_tables(report)
        assert len(tables["cutoff_table"].decode().strip().split("\n")) == 2 + 1
        assert len(tables["tokens"].decode().strip().split("\n")) == 1 + 1

    def test_csv_quoting(self):
        report = self.build()
        report.top_projects = [
            {"key": 'weird,"proj"', "count": 1, "share": 1.0, "cumulative_share": 1.0}
        ]
        body = csv_tables(report)["top_projects"].decode()
        assert '"weird,""proj"""' in body

    def test_text_renders(self):
        out = emit(self.build(), "text").decode()
        assert "out_of_order_parent" in out


class TestAnomalyStream:
    def test_round_trip(self):
        p = rec("p", commit_epoch=1000)
        c = rec("c", commit_epoch=900, parents=(p.id,))
        anomalies = run_all_detectors(build_history([p, c], "proj"), CFG)
        data = emit_anomaly_stream(anomalies, {("proj", p.id): p, ("proj", c.id): c})
        parsed, authors, messages = parse_anomaly_stream(data)
        assert {(a.kind, a.commit_id, a.delta_seconds) for a in parsed} == {
            (a.kind, a.commit_id, a.delta_seconds) for a in anomalies
        }
        assert authors[("proj", c.id)] == (c.author_name, c.author_email)
        assert messages[("proj", c.id)] == c.message

    def test_emission_order_insensitive(self):
        anomalies = [anomaly(("o", i), project=f"p{i % 2}") for i in range(6)]
        shuffled = list(anomalies)
        random.Random(3).shuffle(shuffled)
        assert emit_anomaly_stream(anomalies) == emit_anomaly_stream(shuffled)

    def test_bad_stream_raises(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_anomaly_stream(b"{\"kind\": \"nope\"}\n")


class TestAnomalyStreamRows:
    """Every row is json.dumps of its object in the documented key order."""

    TEXTS = ['plain', 'say "hi"', "back\\slash\\", "ctl \x00\x01\x1f\x7f\t\r\n",
             "non-ascii é İ 中 \U0001f600", "bytes \udc80\udcff", ""]
    ZONES = {0: "+0000", -330: "-0530", 840: "+1400", -720: "-1200", 345: "+0545"}

    def expected_row(self, a, commit):
        obj = {
            "kind": a.kind.value,
            "commit_id": a.commit_id,
            "project": a.project,
            "observed_epoch": a.observed,
            "observed_tz": self.ZONES[a.observed_tz],
        }
        if a.reference is not None:
            obj["reference_epoch"] = a.reference
        if a.counterpart_id is not None:
            obj["counterpart_id"] = a.counterpart_id
        if a.delta_seconds is not None:
            obj["delta_seconds"] = a.delta_seconds
        if commit is not None:
            obj["author_name"] = commit.author_name
            obj["author_email"] = commit.author_email
            obj["message"] = commit.message
        return json.dumps(obj, separators=(",", ":"), ensure_ascii=True)

    def test_rows_equal_json_dumps(self):
        rng = random.Random(43)
        anomalies, commits = [], {}
        optional = itertools.product(
            (None, 1_234_567_890, -5), (None, fake_hash("other")), (None, -86_400, 0, 7)
        )
        for i, (reference, counterpart, delta) in enumerate(optional):
            project = rng.choice(self.TEXTS)
            commit = rec(("row", i), project=project, message=rng.choice(self.TEXTS),
                         author_name=rng.choice(self.TEXTS),
                         author_email=rng.choice(self.TEXTS))
            zone = rng.choice(sorted(self.ZONES))
            # several rows of one commit share its enrichment
            for kind in rng.sample(list(AnomalyKind), rng.randint(1, 3)):
                anomalies.append(AnomalyRecord(
                    kind=kind, commit_id=commit.id, project=project,
                    observed=rng.choice((0, -1, 1_500_000_000, 2**40)), observed_tz=zone,
                    reference=reference, counterpart_id=counterpart, delta_seconds=delta,
                ))
            if i % 3:
                commits[(project, commit.id)] = commit
        ordered = sorted(anomalies, key=lambda a: (
            a.project, a.commit_id, a.kind.value, a.counterpart_id or "", a.delta_seconds or 0
        ))
        expected = "".join(
            self.expected_row(a, commits.get((a.project, a.commit_id))) + "\n"
            for a in ordered
        )
        rng.shuffle(anomalies)
        assert emit_anomaly_stream(anomalies, commits) == expected.encode("ascii")
        assert emit_anomaly_stream(anomalies) == "".join(
            self.expected_row(a, None) + "\n" for a in ordered
        ).encode("ascii")
        assert emit_anomaly_stream([]) == b""

    # a differential check, not a latency check
    @settings(max_examples=300, deadline=None)
    @given(awkward_rows())
    def test_awkward_rows_equal_json_dumps(self, rows):
        anomalies, commits = rows
        assert emit_anomaly_stream(anomalies, commits) == oracle_anomaly_stream(anomalies, commits)
        assert emit_anomaly_stream(anomalies) == oracle_anomaly_stream(anomalies)

    def test_file_and_bytes_agree(self, tmp_path):
        p = rec("p", commit_epoch=1000, message="first\n\xe9 \udc80")
        c = rec("c", commit_epoch=900, parents=(p.id,), author_name="")
        anomalies = run_all_detectors(build_history([p, c], "proj"), CFG)
        data = emit_anomaly_stream(anomalies, {("proj", p.id): p, ("proj", c.id): c})
        # blank and CRLF lines, and a last line without its LF
        data = b"\n" + data.replace(b"\n", b"\r\n", 1) + b"  \n" + data.rstrip(b"\n")
        path = tmp_path / "a.jsonl"
        path.write_bytes(data)
        with open(path, "rb") as fh:
            from_file = parse_anomaly_stream(fh)
        assert from_file == parse_anomaly_stream(data)
        assert from_file == parse_anomaly_stream(io.BytesIO(data))
        assert sorted(from_file[0], key=repr) == sorted(list(anomalies) * 2, key=repr)

    def test_bad_line_number_counts_blank_lines(self):
        good = emit_anomaly_stream([anomaly("n")])
        with pytest.raises(ValueError, match="^bad anomaly record at line 4: "):
            parse_anomaly_stream(good + b"\n\r\n" + b"[1]\n" + good)
