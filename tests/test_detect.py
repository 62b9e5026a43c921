import itertools
import random
import re
import warnings

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chronolint.detect import (
    CVS_RELEASE_EPOCH,
    DEFAULT_FINGERPRINT_RULES,
    DetectorConfig,
    FingerprintRule,
    detect_future,
    detect_old,
    detect_out_of_order_linear,
    detect_out_of_order_parent,
    is_merge_related,
    run_all_detectors,
    scan_fingerprints,
)
from chronolint.filters import drop_pre_epoch
from chronolint.graph import build_history, linearize
from chronolint.model import AnomalyKind, ConfigError
from helpers import (
    brute_force_parent_pairs,
    random_records,
    rec,
    replay_linear_loop,
    utc_epoch,
)

CFG = DetectorConfig(future_reference=utc_epoch(2019, 10, 31))
# fingerprint patterns and messages are drawn from these: cased letters,
# non-ASCII (with a character whose case folds to two), space, and | beside
# the regex metacharacters
PLAIN = "aAbé中ß |-"
METACHARACTERS = ".^$*+?{}[]\\()"
# pieces of valid patterns, so that regexes of every kind are drawn often
ATOMS = st.sampled_from(["a", "A", "é", "中", "ß", " ", "|", "[aé]", "(a|b)", "a*", "b+",
                         "é?", ".", "^", "$", "\\.", "\\d", "a{2}", "[]a]", "()"])


def history_of(*records, project="proj"):
    return build_history(list(records), project)


class TestThresholdDefault:
    def test_cvs_release_is_calendar_correct(self):
        # independent calendar conversion of 1990-11-19T00:00:00Z
        assert utc_epoch(1990, 11, 19) == CVS_RELEASE_EPOCH
        assert DetectorConfig().old_threshold == CVS_RELEASE_EPOCH

    def test_threshold_must_precede_reference(self):
        with pytest.raises(ConfigError):
            DetectorConfig(future_reference=0)

    @pytest.mark.parametrize("key", ["old_threshold", "future_reference"])
    @pytest.mark.parametrize("value", ["1990", 1.5, True])
    def test_instants_must_be_ints(self, key, value):
        """An instant that is not an int is refused when the config is made,
        not compared, nor carried to the detectors."""
        message = f"{key} must be an integer: {value!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            DetectorConfig(**{key: value})


class TestDetectOld:
    def test_zero_epoch_double_flag(self):
        a = rec("a", commit_epoch=0)
        kinds = {x.kind for x in detect_old(history_of(a), CFG)}
        assert kinds == {AnomalyKind.SUSPICIOUS_OLD, AnomalyKind.ZERO_EPOCH}

    def test_deeply_negative_epoch(self):
        a = rec("a", commit_epoch=-2044178335)  # 1905-03-23
        found = detect_old(history_of(a), CFG)
        assert {x.kind for x in found} == {AnomalyKind.SUSPICIOUS_OLD}

    def test_exact_threshold_not_flagged(self):
        a = rec("a", commit_epoch=CVS_RELEASE_EPOCH)
        assert detect_old(history_of(a), CFG) == set()

    def test_empty_after_threshold_filter(self):
        rng = random.Random(5)
        records = [rec(("o", i), commit_epoch=rng.randint(-10**9, 2 * 10**9))
                   for i in range(200)]
        kept, _ = drop_pre_epoch(records, CVS_RELEASE_EPOCH, basis="committer")
        assert detect_old(build_history(kept, "proj"), CFG) == {
            a for a in detect_old(build_history(kept, "proj"), CFG)
            if a.kind is AnomalyKind.ZERO_EPOCH
        }
        assert not any(
            a.kind is AnomalyKind.SUSPICIOUS_OLD
            for a in detect_old(build_history(kept, "proj"), CFG)
        )


class TestDetectFuture:
    def test_2025_commit_flagged(self):
        a = rec("a", commit_epoch=utc_epoch(2025, 6, 1))
        found = detect_future(history_of(a), CFG)
        assert {x.commit_id for x in found} == {a.id}

    def test_commit_at_reference_not_flagged(self):
        a = rec("a", commit_epoch=utc_epoch(2019, 10, 31))
        assert detect_future(history_of(a), CFG) == set()

    def test_planted_future_commits(self):
        rng = random.Random(11)
        planted, clean = [], []
        for i in range(100):
            if rng.random() < 0.2:
                planted.append(rec(("f", i), commit_epoch=utc_epoch(2027) + i))
            else:
                clean.append(rec(("f", i), commit_epoch=utc_epoch(2018) + i))
        found = detect_future(build_history(planted + clean, "proj"), CFG)
        assert {x.commit_id for x in found} == {r.id for r in planted}


class TestMergeRelated:
    def test_merge_branch(self):
        assert is_merge_related("Merge branch 'dev'")

    def test_plain_message(self):
        assert not is_merge_related("fix typo")

    def test_substring_semantics(self):
        assert is_merge_related("submerged pump driver")


class TestOutOfOrderLinear:
    def test_backwards_step_flagged(self):
        a = rec("a", commit_epoch=10, message="first")
        b = rec("b", commit_epoch=5, parents=(a.id,), message="second")
        found = detect_out_of_order_linear(history_of(a, b), CFG)
        assert len(found) == 1
        flag = next(iter(found))
        assert flag.commit_id == b.id
        assert flag.counterpart_id == a.id
        assert flag.delta_seconds == -5

    def test_merge_exclusion_suppresses(self):
        a = rec("a", commit_epoch=10, message="Merge pull request")
        b = rec("b", commit_epoch=5, parents=(a.id,), message="second")
        assert detect_out_of_order_linear(history_of(a, b), CFG) == set()

    def test_cursor_advances_past_suppressed_comparison(self):
        a = rec("a", commit_epoch=10, message="Merge pull request")
        b = rec("b", commit_epoch=5, parents=(a.id,), message="mid")
        c = rec("c", commit_epoch=4, parents=(b.id,), message="late")
        found = detect_out_of_order_linear(history_of(a, b, c), CFG)
        assert {x.commit_id for x in found} == {c.id}

    def test_matches_replay_oracle(self):
        rng = random.Random(2020)
        for _ in range(100):
            records = random_records(rng, rng.randint(1, 64))
            history = build_history(records, "proj")
            for merge_exclusion in (True, False):
                cfg = DetectorConfig(
                    future_reference=CFG.future_reference,
                    merge_exclusion=merge_exclusion,
                )
                found = {x.commit_id for x in detect_out_of_order_linear(history, cfg)}
                assert found == replay_linear_loop(linearize(history), merge_exclusion)

    def test_merge_exclusion_monotone(self):
        rng = random.Random(77)
        for _ in range(30):
            records = random_records(rng, 40)
            history = build_history(records, "proj")
            with_excl = {
                x.commit_id for x in detect_out_of_order_linear(history, CFG)
            }
            without = {
                x.commit_id
                for x in detect_out_of_order_linear(
                    history,
                    DetectorConfig(
                        future_reference=CFG.future_reference, merge_exclusion=False
                    ),
                )
            }
            assert with_excl <= without

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32), n=st.integers(1, 64), merge_exclusion=st.booleans())
    def test_committer_rows_are_parent_rows(self, seed, n, merge_exclusion):
        """On the committer basis a commit older than the one before it in
        the linearization was not ready when that one was taken, so that one
        is its newer parent: each linear row is a parent row, with the same
        counterpart and delta. (The author basis breaks this today.)"""
        history = build_history(random_records(random.Random(seed), n), "proj")
        cfg = DetectorConfig(future_reference=CFG.future_reference,
                             merge_exclusion=merge_exclusion)

        def rows(found):
            return {(a.commit_id, a.counterpart_id, a.delta_seconds) for a in found}

        linear = rows(detect_out_of_order_linear(history, cfg))
        assert linear <= rows(detect_out_of_order_parent(history, cfg))


class TestOutOfOrderParent:
    def test_newer_parent_flagged(self):
        p = rec("p", commit_epoch=1000)
        c = rec("c", commit_epoch=999, parents=(p.id,))
        found = detect_out_of_order_parent(history_of(p, c), CFG)
        assert len(found) == 1
        flag = next(iter(found))
        assert (flag.commit_id, flag.counterpart_id) == (c.id, p.id)
        assert flag.delta_seconds == -1

    def test_equal_times_not_flagged(self):
        p = rec("p", commit_epoch=1000)
        c = rec("c", commit_epoch=1000, parents=(p.id,))
        assert detect_out_of_order_parent(history_of(p, c), CFG) == set()

    def test_planted_hour_skew(self):
        p = rec("p", commit_epoch=1_600_000_000 + 3600)
        c = rec("c", commit_epoch=1_600_000_000, parents=(p.id,))
        found = detect_out_of_order_parent(history_of(p, c), CFG)
        flag = next(iter(found))
        assert flag.delta_seconds == -3600
        assert abs(flag.delta_seconds) <= 3600  # "under an hour" bucket

    def test_matches_brute_force_pairs(self):
        rng = random.Random(303)
        for _ in range(100):
            records = random_records(rng, rng.randint(1, 64))
            history = build_history(records, "proj")
            found = {
                (x.commit_id, x.counterpart_id)
                for x in detect_out_of_order_parent(history, CFG)
            }
            assert found == brute_force_parent_pairs(records)

    def test_author_basis(self):
        p = rec("p", commit_epoch=100, author_epoch=500)
        c = rec("c", commit_epoch=200, author_epoch=400, parents=(p.id,))
        assert detect_out_of_order_parent(history_of(p, c), CFG) == set()
        author = DetectorConfig(future_reference=CFG.future_reference, time_basis="author")
        flagged = detect_out_of_order_parent(history_of(p, c), author)
        assert {x.commit_id for x in flagged} == {c.id}


class TestFingerprints:
    def test_git_svn_id_counted(self):
        r = rec("a", message="sync\n\ngit-svn-id: https://svn.example.com/trunk@5 uuid")
        result = scan_fingerprints([r.message])
        assert result["git-svn-id"] == 1

    def test_one_string_refused(self):
        """A lone message would be read as its characters, so it is refused."""
        with pytest.raises(TypeError, match="^messages "):
            scan_fingerprints("git-svn-id")
        assert scan_fingerprints(["git-svn-id"])["git-svn-id"] == 1

    def test_hg_word_boundary(self):
        hit = rec("a", message="pulled via hg convert")
        miss = rec("b", message="on the highway")
        assert scan_fingerprints([hit.message])["hg"] == 1
        assert scan_fingerprints([miss.message])["hg"] == 0

    def test_hg_rule_matches_word_boundary_oracle(self):
        """The default hg pattern finds "hg" where \\bhg\\b does: on every
        string of length 1-4 over a mix of cased, word and non-word
        characters, and beside non-ASCII word characters."""
        (rule,) = [rule for rule in DEFAULT_FINGERPRINT_RULES if rule.name == "hg"]
        assert rule.case_insensitive
        pattern, oracle = rule.compile(), re.compile(r"\bhg\b", re.IGNORECASE)
        alphabet = "hHgG_1éßİ-xK "
        strings = ["".join(chars) for n in range(1, 5)
                   for chars in itertools.product(alphabet, repeat=n)]
        for neighbour in "ǅ٣²ſKĥğ中ⅷ́  ·":
            strings += [f"{neighbour}hg", f"hg{neighbour}", f"{neighbour}HG{neighbour}",
                        f"{neighbour} hG", f"Hg {neighbour}"]
        mismatched = [s for s in strings
                      if bool(pattern.search(s)) != bool(oracle.search(s))]
        assert mismatched == []

    def test_planted_counts(self):
        plants = {
            "Change-Id": ["Change-Id: I0123abc", "fix\n\nChange-Id: Ideadbeef"],
            "Reviewed-by": ["Reviewed-by: someone <s@example.com>"],
            "rebase_source": ["rebase_source: 12ab", "rebase_source: 34cd",
                              "rebase_source: 56ef"],
            "MOE|push_codebase": ["MOE sync", "push_codebase run"],
        }
        records, expected = [], {}
        i = 0
        for name, messages in plants.items():
            expected[name] = len(messages)
            for m in messages:
                records.append(rec(("fp", i), message=m))
                i += 1
        records.append(rec(("fp", i), message="nothing special"))
        records.append(rec(("fp", i + 1), message="ordinary change"))
        result = scan_fingerprints(r.message for r in records)
        for name, count in expected.items():
            assert result[name] == count
        assert result["git-svn-id"] == 0

    def test_permutation_invariance(self):
        rng = random.Random(6)
        records = [rec(("perm", i), message=m)
                   for i, m in enumerate(["Change-Id: I1", "hg pull", "x", "MOE"])]
        baseline = scan_fingerprints(r.message for r in records)
        for _ in range(5):
            rng.shuffle(records)
            assert scan_fingerprints(r.message for r in records) == baseline

    def test_bad_pattern_rejected_at_load(self):
        with pytest.raises(ConfigError):
            FingerprintRule("broken", "[unclosed").compile()

    @pytest.mark.parametrize("args, message", [
        (("r", 5), "fingerprint rule 'r': pattern must be a string: 5"),
        ((5, "x"), "fingerprint rule 5: name must be a string: 5"),
        ((None, "x"), "fingerprint rule None: name must be a string: None"),
    ])
    def test_name_and_pattern_must_be_strings(self, args, message):
        """Checked when the rule is made, not at the first scan, and no
        count is kept under a key that is not a name."""
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            FingerprintRule(*args)

    def test_duplicate_names_rejected(self):
        rules = [FingerprintRule("x", "a"), FingerprintRule("x", "b")]
        with pytest.raises(ConfigError):
            scan_fingerprints([], rules)

    def test_literal_rules_are_told_apart(self):
        literal = {rule.name: rule.literals() for rule in DEFAULT_FINGERPRINT_RULES}
        assert literal == {"git-svn-id": ("git-svn-id",), "Reviewed-by": ("Reviewed-by",),
                           "Change-Id": ("Change-Id",), "rebase_source": ("rebase_source",),
                           "hg": None, "MOE|push_codebase": ("MOE", "push_codebase")}
        assert FingerprintRule("x", "a|").literals() == ("a", "")
        assert FingerprintRule("x", "café", case_insensitive=True).literals() is None
        for meta in METACHARACTERS:
            assert FingerprintRule("x", f"a{meta}").literals() is None, meta

    @settings(max_examples=300, deadline=None)
    @given(patterns=st.lists(st.tuples(st.one_of(st.text(PLAIN, max_size=6),
                                                 st.text(PLAIN + METACHARACTERS, max_size=6),
                                                 st.lists(ATOMS, max_size=4).map("".join)),
                                       st.booleans()), min_size=1, max_size=4),
           data=st.data())
    def test_counts_match_a_regex_search(self, patterns, data):
        """Each rule counts the messages that re.search finds it in, whether
        it is tested with in (a plain string or a | of plain strings) or with
        its regex. The messages are made of random text and of the patterns
        and their |-separated parts, as written and with their case swapped."""
        rules, flags = [], []
        for k, (pattern, folded) in enumerate(patterns):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")  # "possible nested set", say
                    re.compile(pattern, re.IGNORECASE if folded else 0)
            except (re.error, FutureWarning):
                continue
            rules.append(FingerprintRule(f"r{k}", pattern, folded))
            flags.append(re.IGNORECASE if folded else 0)
        assume(rules)
        pieces = sorted({piece for rule in rules
                         for piece in (rule.pattern, *rule.pattern.split("|"))})
        fragments = st.one_of(st.text(PLAIN + METACHARACTERS, max_size=4),
                              st.sampled_from(pieces), st.sampled_from(pieces).map(str.swapcase))
        messages = data.draw(st.lists(st.lists(fragments, max_size=3).map("".join), max_size=8))
        oracle = {rule.name: sum(re.search(rule.pattern, m, flag) is not None for m in messages)
                  for rule, flag in zip(rules, flags)}
        assert scan_fingerprints(iter(messages), rules) == oracle

    def test_default_rule_set_is_the_published_six(self):
        assert [r.name for r in DEFAULT_FINGERPRINT_RULES] == [
            "git-svn-id", "Reviewed-by", "Change-Id",
            "rebase_source", "hg", "MOE|push_codebase",
        ]


@given(st.integers(-1440, 1440), st.integers(-1440, 1440))
def test_ordering_ignores_offsets(parent_tz, child_tz):
    # zones are display metadata: equal epochs are never flagged, whatever
    # the zones, and an earlier epoch is flagged even when its local time is later
    p = rec("p", commit_epoch=1_500_000_000, offset=parent_tz)
    same = rec("same", commit_epoch=1_500_000_000, parents=(p.id,), offset=child_tz)
    earlier = rec("early", commit_epoch=1_499_999_999, parents=(p.id,), offset=child_tz)
    for basis in ("author", "committer"):
        cfg = DetectorConfig(future_reference=CFG.future_reference, time_basis=basis)
        flagged = run_all_detectors(history_of(p, same, earlier), cfg)
        assert {a.commit_id for a in flagged} == {earlier.id}
        assert run_all_detectors(history_of(p, same), cfg) == set()


def test_all_flags_reference_scanned_commits():
    rng = random.Random(8)
    for _ in range(20):
        records = random_records(rng, 50)
        history = build_history(records, "proj")
        ids = set(history.commits)
        for a in run_all_detectors(history, CFG):
            assert a.commit_id in ids
