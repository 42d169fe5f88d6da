// Checks the self-time arithmetic of layers.h on hand-built span sets.
// Exits non-zero and names the failed check on any mismatch.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "layers.h"

namespace {

int failures = 0;

void expect_near(const char* what, double got, double want) {
  if (std::abs(got - want) > 1e-9) {
    std::printf("FAILED %s: got %.12g, want %.12g\n", what, got, want);
    ++failures;
  }
}

perfbench::Span span(const char* layer, std::int64_t group, double ts,
                     double dur, bool root = false) {
  perfbench::Span s;
  s.layer = layer;
  s.group = group;
  s.ts_us = ts;
  s.dur_us = dur;
  s.root = root;
  return s;
}

double layer_total(const perfbench::Attribution& a, const char* layer) {
  const auto it = a.layers.find(layer);
  return it == a.layers.end() ? 0.0 : it->second.total_us();
}

double self_sum(const perfbench::Attribution& a) {
  double sum = a.unattributed_total_us();
  for (const auto& [layer, times] : a.layers) sum += times.total_us();
  return sum;
}

// Two slots. Slot 0: sibling server spans, one with a nested child, and
// user-track spans (recorded in a different order) that share the slot
// index. Slot 1: a span nested two deep.
void nested_and_sibling_spans() {
  std::vector<perfbench::Span> spans = {
      // Spans arrive in end order, as a trace buffer records them.
      span("build", 0, 10, 20),
      span("predict", 0, 35, 5),       // user track, inside "fetch"
      span("fetch", 0, 30, 30),
      span("feedback", 0, 70, 10),     // user track, sibling
      span("decode", 0, 82, 4),        // user track, sibling
      span("slot", 0, 0, 100, true),
      span("predict", 1, 120, 2),      // inside "decode" inside "fetch"
      span("decode", 1, 115, 10),
      span("fetch", 1, 110, 30),
      span("slot", 1, 100, 50, true),
  };
  const perfbench::Attribution a = perfbench::attribute(spans);
  expect_near("stray spans", static_cast<double>(a.stray_spans), 0.0);
  expect_near("build self", layer_total(a, "build"), 20.0);
  expect_near("fetch self", layer_total(a, "fetch"), (30 - 5) + (30 - 10));
  expect_near("predict self", layer_total(a, "predict"), 5 + 2);
  expect_near("decode self", layer_total(a, "decode"), 4 + (10 - 2));
  expect_near("feedback self", layer_total(a, "feedback"), 10.0);
  expect_near("slot 0 unattributed", a.unattributed_us.at(0),
              100 - 20 - 30 - 10 - 4);
  expect_near("slot 1 unattributed", a.unattributed_us.at(1), 50 - 30);
  expect_near("root total", a.root_total_us(), 150.0);
  expect_near("self times sum to slot time", self_sum(a), a.root_total_us());
  expect_near("no negative self time", a.min_self_us(), 0.0);
  expect_near("predict calls",
              static_cast<double>(a.layers.at("predict").self_us.size()), 2);
}

// Back-to-back siblings: one ends where the next starts, and a child's
// end rounds a hair past its parent's.
void touching_siblings_and_rounding() {
  std::vector<perfbench::Span> spans = {
      span("a", 7, 0, 10),
      span("c", 7, 12, 8.0000000001),  // ends a rounding step past "b"
      span("b", 7, 10, 10),
      span("slot", 7, 0, 25, true),
  };
  const perfbench::Attribution a = perfbench::attribute(spans);
  expect_near("touching: stray", static_cast<double>(a.stray_spans), 0.0);
  expect_near("touching: a", layer_total(a, "a"), 10.0);
  expect_near("touching: b", layer_total(a, "b"), 10 - 8.0000000001);
  expect_near("touching: unattributed", a.unattributed_us.at(0), 5.0);
  expect_near("touching: sum", self_sum(a), 25.0);
}

// Siblings that overlap in part are not nested: the later one is a
// stray. Counted as a child of "parent", it would drive the parent's
// self time to 30 - 20 - 20 = -10 while the sum still held.
void partially_overlapping_siblings() {
  std::vector<perfbench::Span> spans = {
      span("first", 2, 10, 20),
      span("second", 2, 20, 20),  // starts inside "first", ends after it
      span("parent", 2, 10, 30),
      span("late", 4, 150, 20),
      span("early", 4, 140, 20),  // ends inside "late", started before it
      span("slot", 2, 0, 100, true),
      span("slot", 4, 100, 100, true),
  };
  const perfbench::Attribution a = perfbench::attribute(spans);
  expect_near("overlap: stray", static_cast<double>(a.stray_spans), 2.0);
  expect_near("overlap: parent", layer_total(a, "parent"), 30 - 20);
  expect_near("overlap: first", layer_total(a, "first"), 20.0);
  expect_near("overlap: early", layer_total(a, "early"), 20.0);
  expect_near("overlap: second left out",
              static_cast<double>(a.layers.count("second")), 0.0);
  expect_near("overlap: late left out",
              static_cast<double>(a.layers.count("late")), 0.0);
  expect_near("overlap: unattributed", a.unattributed_us.at(0), 100 - 30);
  expect_near("overlap: no negative self time", a.min_self_us(), 0.0);
}

// A span outside its slot, and a group without a root, are strays.
void strays() {
  std::vector<perfbench::Span> spans = {
      span("late", 0, 95, 10),
      span("slot", 0, 0, 100, true),
      span("orphan", 3, 0, 1),
  };
  const perfbench::Attribution a = perfbench::attribute(spans);
  expect_near("strays", static_cast<double>(a.stray_spans), 2.0);
}

}  // namespace

int main() {
  nested_and_sibling_spans();
  touching_siblings_and_rounding();
  partially_overlapping_siblings();
  strays();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
