// Per-layer self time from a run's phase spans.
//
// A traced run leaves one complete span per phase call. Spans that share
// a group (the slot index) belong to one root: the slot span on the
// server track, or for the load service a root span the benchmark wraps
// around the whole run() call. Within a group spans nest by interval
// containment; a span's self time is its duration minus the durations
// of its direct children, and the root's self time is the slot's
// unattributed time. A span that is not nested (it leaves its root, or
// starts inside an open span and ends after it) is a stray and is left
// out. The self times of the other spans in a group plus the root's
// unattributed time therefore sum back to the root's duration, and none
// is negative beyond rounding.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string layer;  ///< Layer name ("system.problem_build", ...).
  std::int64_t group = -1;  ///< Slot index shared by one slot's spans.
  double ts_us = 0.0;
  double dur_us = 0.0;
  bool root = false;  ///< The group's slot (or run) span.
};

struct LayerTimes {
  std::vector<double> self_us;  ///< One entry per call.
  double total_us() const {
    double sum = 0.0;
    for (double v : self_us) sum += v;
    return sum;
  }
};

struct Attribution {
  std::map<std::string, LayerTimes> layers;
  std::vector<double> root_us;          ///< Root durations, group order.
  std::vector<double> unattributed_us;  ///< Root self time, group order.
  /// Spans that fit in no root, belong to a group without a root, or
  /// overlap an enclosing span only in part. They are left out of every
  /// self time, and the benchmark counts a run with any of them as failed.
  std::size_t stray_spans = 0;

  double root_total_us() const {
    double sum = 0.0;
    for (double v : root_us) sum += v;
    return sum;
  }
  double unattributed_total_us() const {
    double sum = 0.0;
    for (double v : unattributed_us) sum += v;
    return sum;
  }
  /// The smallest self time of any span or root, or 0 if none is
  /// smaller. Below 0 beyond rounding, some span's children overlap.
  double min_self_us() const {
    double low = 0.0;
    for (double v : unattributed_us) low = std::min(low, v);
    for (const auto& [layer, times] : layers) {
      for (double v : times.self_us) low = std::min(low, v);
    }
    return low;
  }
};

/// Tolerance for interval containment: a child's end is computed from
/// its own start and duration, which can round a hair past its parent's.
inline constexpr double kNestSlackUs = 1e-3;

inline Attribution attribute(const std::vector<Span>& spans) {
  std::map<std::int64_t, std::vector<const Span*>> groups;
  for (const Span& s : spans) groups[s.group].push_back(&s);

  Attribution out;
  for (auto& [group, members] : groups) {
    const Span* root = nullptr;
    std::vector<const Span*> children;
    for (const Span* s : members) {
      if (s->root && root == nullptr) {
        root = s;
      } else {
        children.push_back(s);
      }
    }
    if (root == nullptr) {
      out.stray_spans += children.size();
      continue;
    }
    // Parents before children: earlier start first, longer span first
    // on a tie.
    std::sort(children.begin(), children.end(),
              [](const Span* a, const Span* b) {
                if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
                return a->dur_us > b->dur_us;
              });
    const double root_end = root->ts_us + root->dur_us;
    std::vector<double> self(children.size());
    std::vector<bool> stray(children.size(), false);
    double root_self = root->dur_us;
    std::vector<std::size_t> open;  // indices into children, nested
    for (std::size_t i = 0; i < children.size(); ++i) {
      const Span* s = children[i];
      const double end = s->ts_us + s->dur_us;
      self[i] = s->dur_us;
      if (s->ts_us < root->ts_us - kNestSlackUs ||
          end > root_end + kNestSlackUs) {
        stray[i] = true;
        continue;
      }
      // Close the open spans that ended before this one starts.
      while (!open.empty()) {
        const Span* top = children[open.back()];
        if (s->ts_us < top->ts_us + top->dur_us - kNestSlackUs) break;
        open.pop_back();
      }
      // A span that starts inside an open span must also end inside it;
      // one that outlives it overlaps it only in part.
      if (!open.empty()) {
        const Span* top = children[open.back()];
        if (end > top->ts_us + top->dur_us + kNestSlackUs) {
          stray[i] = true;
          continue;
        }
      }
      if (open.empty()) {
        root_self -= s->dur_us;
      } else {
        self[open.back()] -= s->dur_us;
      }
      open.push_back(i);
    }
    for (std::size_t i = 0; i < children.size(); ++i) {
      if (stray[i]) {
        ++out.stray_spans;
      } else {
        out.layers[children[i]->layer].self_us.push_back(self[i]);
      }
    }
    out.root_us.push_back(root->dur_us);
    out.unattributed_us.push_back(root_self);
  }
  return out;
}

/// Appends `part` (another repeat's attribution) to `into`.
inline void merge(Attribution& into, const Attribution& part) {
  for (const auto& [layer, times] : part.layers) {
    std::vector<double>& self = into.layers[layer].self_us;
    self.insert(self.end(), times.self_us.begin(), times.self_us.end());
  }
  into.root_us.insert(into.root_us.end(), part.root_us.begin(),
                      part.root_us.end());
  into.unattributed_us.insert(into.unattributed_us.end(),
                              part.unattributed_us.begin(),
                              part.unattributed_us.end());
  into.stray_spans += part.stray_spans;
}

}  // namespace perfbench
