"""Tests for request differentiation (classifier + rules)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.core.differentiation import PASSTHROUGH, Classifier, ClassifierRule
from repro.core.requests import OperationClass, OperationType, Request


def md_rule(name="md", channel="metadata", **kw):
    return ClassifierRule(
        name=name,
        channel_id=channel,
        op_classes=frozenset({OperationClass.METADATA}),
        **kw,
    )


class TestClassifierRule:
    def test_needs_some_conjunct(self):
        with pytest.raises(ConfigError, match="constrains nothing"):
            ClassifierRule(name="r", channel_id="c")

    def test_needs_name_and_channel(self):
        with pytest.raises(ConfigError):
            ClassifierRule(name="", channel_id="c", op_types=frozenset({OperationType.OPEN}))
        with pytest.raises(ConfigError):
            ClassifierRule(name="r", channel_id="", op_types=frozenset({OperationType.OPEN}))

    def test_op_type_match(self):
        rule = ClassifierRule(
            name="opens", channel_id="c", op_types=frozenset({OperationType.OPEN})
        )
        assert rule.matches(Request(OperationType.OPEN, path="/x"))
        assert not rule.matches(Request(OperationType.CLOSE, path="/x"))

    def test_conjunction_of_attributes(self):
        rule = ClassifierRule(
            name="r",
            channel_id="c",
            op_types=frozenset({OperationType.OPEN}),
            path_prefixes=("/scratch/foo",),
            job_ids=frozenset({"job1"}),
        )
        good = Request(OperationType.OPEN, path="/scratch/foo/a", job_id="job1")
        assert rule.matches(good)
        assert not rule.matches(
            Request(OperationType.OPEN, path="/scratch/bar", job_id="job1")
        )
        assert not rule.matches(
            Request(OperationType.OPEN, path="/scratch/foo/a", job_id="job2")
        )

    def test_prefix_does_not_match_sibling(self):
        rule = ClassifierRule(name="r", channel_id="c", path_prefixes=("/scratch",))
        assert rule.matches(Request(OperationType.OPEN, path="/scratch/a"))
        assert rule.matches(Request(OperationType.OPEN, path="/scratch"))
        assert not rule.matches(Request(OperationType.OPEN, path="/scratchy/a"))

    def test_root_prefix_matches_everything_absolute(self):
        rule = ClassifierRule(name="r", channel_id="c", path_prefixes=("/",))
        assert rule.matches(Request(OperationType.OPEN, path="/anything/at/all"))


class TestClassifier:
    def test_unmatched_passthrough(self):
        clf = Classifier([md_rule()])
        decision = clf.classify(Request(OperationType.READ, path="/x"))
        assert decision is PASSTHROUGH
        assert not decision.enforced

    def test_matched_routes_to_channel(self):
        clf = Classifier([md_rule()])
        decision = clf.classify(Request(OperationType.OPEN, path="/x"))
        assert decision.enforced
        assert decision.channel_id == "metadata"
        assert decision.rule_name == "md"

    def test_priority_order(self):
        low = ClassifierRule(
            name="all-md", channel_id="broad",
            op_classes=frozenset({OperationClass.METADATA}), priority=0,
        )
        high = ClassifierRule(
            name="opens", channel_id="narrow",
            op_types=frozenset({OperationType.OPEN}), priority=10,
        )
        clf = Classifier([low, high])
        assert clf.classify(Request(OperationType.OPEN, path="/x")).channel_id == "narrow"
        assert clf.classify(Request(OperationType.CLOSE, path="/x")).channel_id == "broad"

    def test_equal_priority_insertion_order(self):
        a = md_rule(name="a", channel="ch-a")
        b = md_rule(name="b", channel="ch-b")
        clf = Classifier([a, b])
        assert clf.classify(Request(OperationType.OPEN, path="/x")).channel_id == "ch-a"

    def test_duplicate_rule_name_rejected(self):
        clf = Classifier([md_rule()])
        with pytest.raises(ConfigError, match="duplicate"):
            clf.add_rule(md_rule())

    def test_remove_rule(self):
        clf = Classifier([md_rule()])
        clf.remove_rule("md")
        assert clf.classify(Request(OperationType.OPEN, path="/x")) is PASSTHROUGH
        with pytest.raises(ConfigError):
            clf.remove_rule("md")

    def test_mount_filtering(self):
        """Requests outside the PFS mounts bypass all rules (paper: xfs/NFS)."""
        clf = Classifier([md_rule()], pfs_mounts=("/lustre",))
        assert clf.classify(Request(OperationType.OPEN, path="/lustre/f")).enforced
        assert clf.classify(Request(OperationType.OPEN, path="/tmp/f")) is PASSTHROUGH

    def test_empty_path_treated_as_pfs(self):
        clf = Classifier([md_rule()], pfs_mounts=("/lustre",))
        assert clf.classify(Request(OperationType.CLOSE, path="")).enforced

    def test_empty_mounts_rejected(self):
        with pytest.raises(ConfigError):
            Classifier(pfs_mounts=[])


@settings(max_examples=100, deadline=None)
@given(
    op=st.sampled_from(list(OperationType)),
    path=st.sampled_from(["/pfs/a", "/pfs/b/c", "/tmp/x", "/home/u", ""]),
    job=st.sampled_from(["job1", "job2", ""]),
)
def test_classification_is_deterministic_and_total(op, path, job):
    """Every request gets exactly one decision, stable across calls."""
    clf = Classifier(
        [
            ClassifierRule(
                name="opens", channel_id="c1",
                op_types=frozenset({OperationType.OPEN}), priority=5,
            ),
            md_rule(),
        ],
        pfs_mounts=("/pfs",),
    )
    req = Request(op, path=path, job_id=job)
    first = clf.classify(req)
    second = clf.classify(req)
    assert first == second
    if first.enforced:
        assert first.channel_id in ("c1", "metadata")


class TestRuleOrderMaintenance:
    """Regressions for the sorted-insert rule table (was an O(n^2) re-sort)."""

    def test_add_rule_keeps_stable_descending_priority(self):
        clf = Classifier()
        for name, priority in [
            ("a", 0), ("b", 5), ("c", 5), ("d", 10), ("e", 0), ("f", 5),
        ]:
            clf.add_rule(md_rule(name=name, channel=f"ch-{name}", priority=priority))
        assert [r.name for r in clf.rules] == ["d", "b", "c", "f", "a", "e"]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(min_value=-5, max_value=5), max_size=30))
    def test_order_matches_stable_sort(self, priorities):
        clf = Classifier()
        for i, priority in enumerate(priorities):
            clf.add_rule(md_rule(name=f"r{i}", channel="ch", priority=priority))
        expected = [
            f"r{i}"
            for i, _ in sorted(enumerate(priorities), key=lambda item: -item[1])
        ]
        assert [r.name for r in clf.rules] == expected

    def test_remove_then_readd_same_name(self):
        clf = Classifier([md_rule(name="x")])
        clf.remove_rule("x")
        clf.add_rule(md_rule(name="x"))  # name is free again
        assert [r.name for r in clf.rules] == ["x"]


class TestDecisionCache:
    def test_add_rule_invalidates_cached_decisions(self):
        clf = Classifier(pfs_mounts=("/pfs",))
        request = Request(OperationType.OPEN, path="/pfs/job/file")
        assert clf.classify(request) is PASSTHROUGH
        generation = clf.generation
        clf.add_rule(md_rule())
        assert clf.generation == generation + 1
        decision = clf.classify(Request(OperationType.OPEN, path="/pfs/job/file"))
        assert decision.enforced and decision.rule_name == "md"

    def test_remove_rule_invalidates_cached_decisions(self):
        clf = Classifier([md_rule()], pfs_mounts=("/pfs",))
        request = Request(OperationType.OPEN, path="/pfs/job/file")
        assert clf.classify(request).enforced
        clf.remove_rule("md")
        assert clf.classify(Request(OperationType.OPEN, path="/pfs/job/file")) is PASSTHROUGH

    def test_siblings_of_a_prefix_endpoint_classify_independently(self):
        """/pfs holds the rule-prefix endpoint, so /pfs files can't share keys."""
        clf = Classifier(pfs_mounts=("/pfs",))
        clf.add_rule(
            ClassifierRule(name="jobA", channel_id="ch", path_prefixes=("/pfs/jobA",))
        )
        assert clf.classify(Request(OperationType.OPEN, path="/pfs/jobA")).enforced
        assert clf.classify(Request(OperationType.OPEN, path="/pfs/jobB")) is PASSTHROUGH
        # Inside the prefix the per-directory key is shared and still exact.
        assert clf.classify(Request(OperationType.OPEN, path="/pfs/jobA/f1")).enforced
        assert clf.classify(Request(OperationType.OPEN, path="/pfs/jobA/f2")).enforced

    @pytest.mark.parametrize(
        "a, b",
        [
            (a, b)
            for a in ("", "rel", "/mnt/pfs/x", "/mnt/pfsx/y")
            for b in ("", "rel", "/mnt/pfs/x", "/mnt/pfsx/y")
            if a < b
        ],
    )
    def test_decisions_do_not_depend_on_arrival_order(self, a, b):
        """The unknown path "" is PFS-bound, a relative name is not: no
        two paths that decide differently may share a cache key."""

        def decide(order):
            clf = Classifier([md_rule()], pfs_mounts=("/mnt/pfs",))
            return {
                path: clf.classify(Request(OperationType.STAT, path=path))
                for path in order
            }

        assert decide((a, b)) == decide((b, a))
        fresh = Classifier([md_rule()], pfs_mounts=("/mnt/pfs",))
        for path, decision in decide((a, b)).items():
            assert decision == fresh._classify_uncached(
                Request(OperationType.STAT, path=path)
            )

    def test_decide_is_classify_without_the_request(self):
        clf = Classifier([md_rule()], pfs_mounts=("/mnt/pfs",))
        for op in (OperationType.STAT, OperationType.READ):
            for path in ("", "rel", "/mnt/pfs/x", "/mnt/pfs", "/mnt/pfsx/y", "/"):
                for job in ("", "job1"):
                    assert clf.decide(op, job, path) is clf.classify(
                        Request(op, path=path, job_id=job)
                    )

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(list(OperationType)),
                st.sampled_from(
                    [
                        "/pfs", "/pfs/jobA", "/pfs/jobA/x", "/pfs/jobA/x/y",
                        "/pfs/jobB", "/pfs/jobB/z", "/pfsother", "/nfs/home/u",
                        "/", "", "/pfs/jobA/x/../x/y", "rel", "other-rel",
                    ]
                ),
                st.sampled_from(["job1", "job2", ""]),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_cached_decisions_match_uncached(self, requests):
        clf = Classifier(
            [
                ClassifierRule(
                    name="jobA-opens",
                    channel_id="a",
                    op_types=frozenset({OperationType.OPEN}),
                    path_prefixes=("/pfs/jobA",),
                    priority=10,
                ),
                md_rule(name="all-md", channel="md"),
            ],
            pfs_mounts=("/pfs",),
        )
        for op, path, job in requests:
            request = Request(op, path=path, job_id=job)
            cached = clf.classify(request)
            fresh = clf._classify_uncached(request)
            assert cached == fresh
