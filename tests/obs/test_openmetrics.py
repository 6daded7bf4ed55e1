"""OpenMetrics exposition: render shapes, round-trip parse, rejection."""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.obs import MetricsRegistry, parse_openmetrics, render_openmetrics


def make_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("hmpi.repairs").inc(3)
    reg.counter("mpi.msgs", rank=0).inc(10)
    reg.counter("mpi.msgs", rank=1).inc(12)
    reg.gauge("engine.heap").set(17.0, vtime=2.5)
    reg.histogram("latency.us", bounds=(1.0, 10.0)).observe(0.5)
    reg.histogram("latency.us", bounds=(1.0, 10.0)).observe(5.0)
    reg.histogram("latency.us", bounds=(1.0, 10.0)).observe(50.0)
    reg.mark_vtime(0.0)
    reg.mark_vtime(9.0)
    return reg


class TestRender:
    def test_counter_gets_total_suffix_and_type_header(self):
        text = render_openmetrics(make_registry())
        assert "# TYPE hmpi_repairs counter" in text
        assert "hmpi_repairs_total 3.0" in text

    def test_labelled_series_share_one_family_header(self):
        text = render_openmetrics(make_registry())
        assert text.count("# TYPE mpi_msgs counter") == 1
        assert 'mpi_msgs_total{rank="0"} 10.0' in text
        assert 'mpi_msgs_total{rank="1"} 12.0' in text

    def test_gauge_carries_vtime_exemplar(self):
        text = render_openmetrics(make_registry())
        assert 'engine_heap 17.0 # {vtime="2.5"} 2.5' in text

    def test_histogram_expands_buckets_sum_count(self):
        text = render_openmetrics(make_registry())
        assert 'latency_us_bucket{le="1.0"} 1' in text
        assert 'latency_us_bucket{le="10.0"} 2' in text
        assert 'latency_us_bucket{le="+Inf"} 3' in text
        assert "latency_us_sum 55.5" in text
        assert "latency_us_count 3" in text

    def test_vtime_window_rendered_as_gauges(self):
        text = render_openmetrics(make_registry())
        assert "repro_vtime_min 0.0" in text
        assert "repro_vtime_max 9.0" in text

    def test_ends_with_eof_and_newline(self):
        text = render_openmetrics(make_registry())
        assert text.endswith("# EOF\n")

    def test_accepts_saved_snapshot_dict(self):
        snap = make_registry().snapshot()
        assert render_openmetrics(snap) == render_openmetrics(make_registry())

    def test_rejects_non_snapshot_sources(self):
        with pytest.raises(TypeError, match="snapshot"):
            render_openmetrics(42)
        with pytest.raises(TypeError, match="snapshot"):
            render_openmetrics({"rows": []})

    def test_rejects_unknown_series_type(self):
        snap = {"metrics": [{"name": "x", "type": "summary", "value": 1.0}]}
        with pytest.raises(ValueError, match="unknown series type"):
            render_openmetrics(snap)

    def test_rejects_pre_v1_histogram_without_buckets(self):
        snap = {"metrics": [{"name": "h", "type": "histogram",
                             "labels": {}, "count": 1, "sum": 2.0}]}
        with pytest.raises(ValueError, match="buckets"):
            render_openmetrics(snap)

    def test_empty_registry_renders_bare_eof(self):
        assert render_openmetrics(MetricsRegistry()) == "# EOF\n"


class TestRoundTrip:
    def test_rendered_text_parses(self):
        families = parse_openmetrics(render_openmetrics(make_registry()))
        assert families["hmpi_repairs"]["type"] == "counter"
        assert families["latency_us"]["type"] == "histogram"
        assert families["engine_heap"]["type"] == "gauge"

    def test_parsed_values_match_registry(self):
        families = parse_openmetrics(render_openmetrics(make_registry()))
        samples = {(n, tuple(sorted(l.items()))): v
                   for n, l, v in families["mpi_msgs"]["samples"]}
        assert samples[("mpi_msgs_total", (("rank", "0"),))] == 10.0
        assert samples[("mpi_msgs_total", (("rank", "1"),))] == 12.0
        buckets = {l["le"]: v
                   for n, l, v in families["latency_us"]["samples"]
                   if n.endswith("_bucket")}
        assert buckets == {"1.0": 1.0, "10.0": 2.0, "+Inf": 3.0}


    @given(tenant=st.text(), op=st.text())
    @example(tenant="a}b{", op="timeof")      # closed the label set early
    @example(tenant="\\n", op='",x="')        # backslash-n is not a newline
    def test_any_label_value_round_trips(self, tenant, op):
        reg = MetricsRegistry()
        reg.counter("jobs", tenant=tenant, op=op).inc(2)
        reg.gauge("depth", tenant=tenant).set(1.0, vtime=0.5)
        reg.histogram("wait", bounds=(1.0,), tenant=tenant).observe(0.5)
        families = parse_openmetrics(render_openmetrics(reg))
        assert families["jobs"]["samples"] == [
            ("jobs_total", {"tenant": tenant, "op": op}, 2.0)]
        assert families["depth"]["samples"] == [
            ("depth", {"tenant": tenant}, 1.0)]
        assert [labels for _, labels, _ in families["wait"]["samples"]] == [
            {"tenant": tenant, "le": "1.0"}, {"tenant": tenant, "le": "+Inf"},
            {"tenant": tenant}, {"tenant": tenant}]


class TestParseRejections:
    GOOD = "# TYPE a counter\na_total 1.0\n# EOF\n"

    def test_good_text_parses(self):
        assert parse_openmetrics(self.GOOD)["a"]["samples"] == [
            ("a_total", {}, 1.0)]

    def test_missing_eof(self):
        with pytest.raises(ValueError, match="EOF"):
            parse_openmetrics("# TYPE a counter\na_total 1.0\n")

    def test_missing_final_newline(self):
        with pytest.raises(ValueError, match="newline"):
            parse_openmetrics("# TYPE a counter\na_total 1.0\n# EOF")

    def test_sample_without_type_header(self):
        with pytest.raises(ValueError, match="no # TYPE"):
            parse_openmetrics("orphan 1.0\n# EOF\n")

    def test_non_numeric_value(self):
        with pytest.raises(ValueError, match="non-numeric"):
            parse_openmetrics("# TYPE a gauge\na wat\n# EOF\n")

    def test_malformed_labels(self):
        with pytest.raises(ValueError, match="label"):
            parse_openmetrics('# TYPE a gauge\na{rank=0} 1.0\n# EOF\n')

    def test_trailing_garbage(self):
        with pytest.raises(ValueError, match="trailing"):
            parse_openmetrics("# TYPE a gauge\na 1.0 stuff\n# EOF\n")

    def test_unknown_metric_type(self):
        with pytest.raises(ValueError, match="unknown metric type"):
            parse_openmetrics("# TYPE a widget\na 1.0\n# EOF\n")

    def test_decreasing_histogram_buckets(self):
        bad = ("# TYPE h histogram\n"
               'h_bucket{le="1.0"} 5\n'
               'h_bucket{le="2.0"} 3\n'
               'h_bucket{le="+Inf"} 5\n'
               "h_sum 1.0\nh_count 5\n# EOF\n")
        with pytest.raises(ValueError, match="decrease"):
            parse_openmetrics(bad)

    def test_histogram_series_checked_per_label_set(self):
        # Interleaved label sets are each monotone — must pass.
        good = ("# TYPE h histogram\n"
                'h_bucket{le="1.0",rank="0"} 5\n'
                'h_bucket{le="1.0",rank="1"} 1\n'
                'h_bucket{le="+Inf",rank="0"} 6\n'
                'h_bucket{le="+Inf",rank="1"} 2\n'
                "# EOF\n")
        fams = parse_openmetrics(good)
        assert len(fams["h"]["samples"]) == 4


class TestFormatting:
    def test_special_floats(self):
        reg = MetricsRegistry()
        reg.gauge("g.inf").set(math.inf)
        text = render_openmetrics(reg)
        assert "g_inf +Inf" in text
        parse_openmetrics(text)  # +Inf is a legal float() string

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("c", path='say "hi"\nbye').inc()
        text = render_openmetrics(reg)
        assert '\\"hi\\"' in text and "\\n" in text
        families = parse_openmetrics(text)
        (_, labels, _), = families["c"]["samples"]
        assert labels["path"] == 'say "hi"\nbye'
