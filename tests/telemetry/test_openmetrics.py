"""OpenMetrics exposition: escaping, bucket shape, renderer ↔ JSON
identity, and the validating parser's rejections."""

import math

import pytest

from repro.errors import ArtifactError
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.openmetrics import (
    CONTENT_TYPE,
    OpenMetricsBuilder,
    escape_label_value,
    parse_openmetrics,
    render_registry,
    sanitize_metric_name,
)


class TestEscaping:
    def test_label_value_escapes(self):
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"

    def test_escaped_labels_round_trip_through_parser(self):
        builder = OpenMetricsBuilder()
        nasty = 'quo"te\\slash\nline'
        builder.gauge("g", 1.0, labels={"model": nasty})
        parsed = parse_openmetrics(builder.render())
        ((_, labels, _),) = parsed["samples"]
        assert labels["model"] == nasty

    def test_metric_name_sanitized(self):
        assert sanitize_metric_name("serve.latency_seconds") == \
            "serve_latency_seconds"
        assert sanitize_metric_name("9lives").startswith("_")


class TestBuilder:
    def test_counter_normalizes_total_suffix(self):
        builder = OpenMetricsBuilder()
        builder.counter("requests_total", 3)
        text = builder.render()
        assert "# TYPE requests counter" in text
        assert "requests_total 3.0" in text
        assert text.endswith("# EOF\n")

    def test_family_type_conflict_rejected(self):
        builder = OpenMetricsBuilder()
        builder.counter("x", 1)
        with pytest.raises(ArtifactError):
            builder.gauge("x", 1)

    def test_histogram_appends_inf_bucket(self):
        builder = OpenMetricsBuilder()
        builder.histogram("h", [(0.1, 2), (1.0, 5)], total=1.5, count=7)
        parsed = parse_openmetrics(builder.render())
        les = [labels["le"] for name, labels, _ in parsed["samples"]
               if name == "h_bucket"]
        assert les == ["0.1", "1.0", "+Inf"]


class TestRegistryRendering:
    def _registry(self):
        registry = MetricsRegistry(seed=0)
        registry.count("serve.requests", 5)
        registry.set_gauge("serve.queue_depth", 2)
        for value in (0.002, 0.004, 0.2):
            registry.observe("serve.latency_seconds", value)
        return registry

    def test_renders_valid_openmetrics(self):
        parsed = parse_openmetrics(render_registry(self._registry()))
        assert parsed["families"]["repro_serve_requests"] == "counter"
        assert parsed["families"]["repro_serve_queue_depth"] == "gauge"
        assert parsed["families"]["repro_serve_latency_seconds"] == \
            "histogram"

    def test_counter_values_match_json_snapshot(self):
        """The OpenMetrics text and the JSON snapshot expose identical
        counter values — two renderings of one registry."""
        registry = self._registry()
        snapshot = registry.snapshot()
        parsed = parse_openmetrics(render_registry(registry))
        by_name = {name: value for name, _, value in parsed["samples"]}
        for name, value in snapshot["counters"].items():
            assert by_name["repro_" + sanitize_metric_name(name)
                           + "_total"] == value

    def test_histogram_buckets_monotone_and_consistent(self):
        registry = self._registry()
        parsed = parse_openmetrics(render_registry(registry))
        buckets = [(float(labels["le"]) if labels["le"] != "+Inf"
                    else math.inf, value)
                   for name, labels, value in parsed["samples"]
                   if name == "repro_serve_latency_seconds_bucket"]
        counts = [count for _, count in buckets]
        assert counts == sorted(counts)
        assert buckets[-1] == (math.inf, 3)

    def test_gauge_trend_family_present(self):
        registry = MetricsRegistry(seed=0)
        for depth in (1, 4, 2):
            registry.set_gauge("serve.queue_depth", depth)
        parsed = parse_openmetrics(render_registry(registry))
        stats = {labels["stat"]: value
                 for name, labels, value in parsed["samples"]
                 if name == "repro_serve_queue_depth_trend"}
        assert stats["min"] == pytest.approx(1.0)
        assert stats["max"] == pytest.approx(4.0)
        assert 1.0 < stats["mean"] < 4.0

    def test_labelled_registries_share_one_builder(self):
        """Per-model registries rendered into one builder: one TYPE
        block per family, every sample (trend included) labelled."""
        builder = OpenMetricsBuilder()
        for model, depth in (("a", 1), ("b", 3)):
            registry = MetricsRegistry(seed=0)
            registry.count("requests", depth)
            registry.set_gauge("queue_depth", depth)
            render_registry(registry, "repro_serve_",
                            labels={"model": model}, builder=builder)
        text = builder.render()
        assert text.count("# TYPE repro_serve_requests counter") == 1
        samples = parse_openmetrics(text)["samples"]
        by_model = {(name, labels["model"], labels.get("stat")): value
                    for name, labels, value in samples}
        assert by_model[("repro_serve_requests_total", "b", None)] == 3
        assert by_model[("repro_serve_queue_depth", "a", None)] == 1
        assert by_model[("repro_serve_queue_depth_trend", "b", "max")] == 3

    def test_content_type_is_openmetrics(self):
        assert CONTENT_TYPE.startswith("application/openmetrics-text")


class TestParserRejections:
    def test_missing_eof(self):
        with pytest.raises(ArtifactError, match="EOF"):
            parse_openmetrics("# TYPE x counter\nx_total 1\n")

    def test_sample_without_type(self):
        with pytest.raises(ArtifactError, match="no preceding"):
            parse_openmetrics("orphan 1\n# EOF\n")

    def test_counter_sample_must_end_total(self):
        with pytest.raises(ArtifactError, match="_total"):
            parse_openmetrics("# TYPE x counter\nx 1\n# EOF\n")

    def test_non_monotone_buckets(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\n'
            'h_bucket{le="1.0"} 3\n'
            'h_bucket{le="+Inf"} 5\n'
            "h_sum 1.0\nh_count 5\n# EOF\n"
        )
        with pytest.raises(ArtifactError, match="monotone"):
            parse_openmetrics(text)

    def test_inf_bucket_must_match_count(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 5\n'
            "h_sum 1.0\nh_count 6\n# EOF\n"
        )
        with pytest.raises(ArtifactError, match="_count"):
            parse_openmetrics(text)

    def test_malformed_labels(self):
        with pytest.raises(ArtifactError):
            parse_openmetrics('# TYPE g gauge\ng{oops} 1\n# EOF\n')

    def test_duplicate_type_rejected(self):
        with pytest.raises(ArtifactError, match="duplicate"):
            parse_openmetrics(
                "# TYPE g gauge\n# TYPE g gauge\n# EOF\n"
            )
