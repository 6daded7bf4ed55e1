"""Wire-protocol validation: eager, total, and digest semantics."""

import pytest

from repro.serve import BadRequest, validate_request
from repro.serve.protocol import SERVE_OPS, canonical_digest

RING = """
algorithm Ring(int p, int v[p]) {
  coord I=p;
  node {I>=0: bench*(v[I]);};
  link (L=p) { L == (I+1)%p : length*(64) [L]->[I]; };
  parent[0];
}
"""


def ring_request(**over):
    raw = {"op": "timeof", "model": RING,
           "params": {"p": 4, "v": [10, 20, 30, 40]}, "cluster": "paper"}
    raw.update(over)
    return raw


class TestValidation:
    def test_ops_registry(self):
        assert set(SERVE_OPS) == {
            "timeof", "group_create", "check", "campaign_cell"}

    def test_minimal_timeof_validates(self):
        req = validate_request(ring_request())
        assert req.op == "timeof"
        assert req.tenant == "anonymous"
        assert req.model_digest and req.world_digest and req.shape_digest
        assert req.batch_key[0] == "select"

    def test_hyphenated_op_spelling_normalises(self):
        req = validate_request(ring_request(
            op="campaign-cell", model=None, cluster=None,
            params=None, campaign={"name": "x", "app": "timeof_em3d"}))
        assert req.op == "campaign_cell"

    def test_non_object_request_rejected(self):
        with pytest.raises(BadRequest, match="JSON object"):
            validate_request([1, 2, 3])

    def test_unknown_keys_rejected(self):
        with pytest.raises(BadRequest, match="unknown request key"):
            validate_request(ring_request(bogus=1))

    def test_unknown_op_rejected(self):
        with pytest.raises(BadRequest, match="unknown op"):
            validate_request(ring_request(op="predict"))

    @pytest.mark.parametrize("tenant", ["", 7, None])
    def test_bad_tenant_rejected(self, tenant):
        with pytest.raises(BadRequest, match="tenant"):
            validate_request(ring_request(tenant=tenant))

    @pytest.mark.parametrize("tenant", ["a}b{", "two words", "line\nbreak",
                                        "caf\u00e9", "x" * 65])
    def test_tenant_outside_the_label_alphabet_rejected(self, tenant):
        with pytest.raises(BadRequest, match=r"1 to 64 characters from "
                                             r"\[A-Za-z0-9_.:@-\]") as err:
            validate_request(ring_request(tenant=tenant))
        assert len(str(err.value)) < 200  # the value is quoted, not echoed whole

    def test_tenant_alphabet_and_length_limit_accepted(self):
        for tenant in ("team-a", "svc.batch:7@eu_west", "x" * 64):
            assert validate_request(ring_request(tenant=tenant)).tenant == tenant

    @pytest.mark.parametrize("key", ["wait", "timeout", "iterations"])
    def test_numbers_must_be_nonnegative_numbers(self, key):
        with pytest.raises(BadRequest, match=key):
            validate_request(ring_request(**{key: -1}))
        with pytest.raises(BadRequest, match=key):
            validate_request(ring_request(**{key: "soon"}))
        with pytest.raises(BadRequest, match=key):
            validate_request(ring_request(**{key: True}))

    def test_model_required_for_selection_ops(self):
        with pytest.raises(BadRequest, match="model"):
            validate_request(ring_request(model="   "))

    def test_cluster_required_for_selection_ops(self):
        with pytest.raises(BadRequest, match="cluster"):
            validate_request(ring_request(cluster=None))

    def test_unknown_mapper_rejected_at_validation(self):
        with pytest.raises(BadRequest, match="unknown mapper"):
            validate_request(ring_request(mapper="magic"))

    def test_unknown_backend_rejected_at_validation(self):
        # The pricing-backend knob is gone, not ignored: even a formerly
        # valid value is an unknown key.
        with pytest.raises(BadRequest,
                           match=r"unknown request key\(s\) timeof_backend"):
            validate_request(ring_request(timeof_backend="net"))

    @pytest.mark.parametrize("speeds", [[], [0.0], [-1.0], [True], "fast"])
    def test_bad_speeds_rejected(self, speeds):
        with pytest.raises(BadRequest, match="speeds"):
            validate_request(ring_request(speeds=speeds))

    def test_campaign_cell_needs_config_and_cell(self):
        with pytest.raises(BadRequest, match="campaign"):
            validate_request({"op": "campaign_cell"})
        with pytest.raises(BadRequest, match="cell"):
            validate_request({"op": "campaign_cell",
                              "campaign": {"name": "x"}, "cell": -1})


class TestBatchKeys:
    """Coalescing semantics: what shares an evaluation, what must not."""

    def test_tenant_and_wait_do_not_split_batches(self):
        a = validate_request(ring_request(tenant="team-a", wait=5))
        b = validate_request(ring_request(tenant="team-b", wait=0))
        assert a.batch_key == b.batch_key

    def test_iterations_do_not_split_batches(self):
        # timeof scales the cached selection by iterations post hoc.
        a = validate_request(ring_request(iterations=1))
        b = validate_request(ring_request(iterations=50))
        assert a.batch_key == b.batch_key

    @pytest.mark.parametrize("over", [
        {"params": {"p": 4, "v": [10, 20, 30, 41]}},
        {"mapper": "greedy"},
        {"algorithm": "Ring"},
        {"speeds": [1.0] * 9},
        {"cluster": "multiprotocol"},
    ])
    def test_shape_changes_split_batches(self, over):
        a = validate_request(ring_request())
        b = validate_request(ring_request(**over))
        assert a.batch_key != b.batch_key

    def test_whitespace_normalisation_shares_model_digest(self):
        a = validate_request(ring_request())
        b = validate_request(ring_request(model=RING.replace("\n", "\r\n")))
        assert a.model_digest == b.model_digest
        assert a.batch_key == b.batch_key

    def test_canonical_digest_is_key_order_independent(self):
        assert canonical_digest({"a": 1, "b": 2}) == \
            canonical_digest({"b": 2, "a": 1})
