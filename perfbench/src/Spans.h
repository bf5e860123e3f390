//===- perfbench/src/Spans.h - In-memory spans of the traced run -*- C++ -*-===//
///
/// \file
/// The traced run takes timestamps around each call the benchmark makes
/// into a layer's public API; once the pass ends they become one span per
/// call (plus two spans derived from the service report's own queue-wait
/// and run-time fields). Spans sit in memory until the run ends, are
/// written to a TSV file, and are folded into per-layer self times: a
/// span's self time is its duration minus its children's durations, and
/// the root span's self time is the query time no layer claims
/// (unattributed). Summed over a tree, the self times equal the root's
/// duration whatever the spans hold, so that sum checks nothing;
/// checkNesting() is the check.
///
/// Stage spans (parse, prune, WordToAPI, EdgeToPath, DGGT) come from a
/// serial replay of the same inputs through the stage functions against
/// shadow caches that saw the same query sequence; they are grafted under
/// the query's service span and flagged as such in the file.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Where a span's self time is booked.
enum class Layer : uint8_t {
  Unattributed, ///< Root spans: time inside the query no layer call covers.
  NlpParse,
  NlpPrune,
  NluWordToApi,
  SynthEdgeToPath,
  SynthDggt,
  ServiceSubmit,
  ServiceQueueWait,
  ServiceSelf,
  RouterSelf,
  HttpSelf,
  Count
};

struct Span {
  const char *Name = "";
  Layer L = Layer::Unattributed;
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0 for the query's root span.
  uint32_t Query = 0;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  bool Grafted = false; ///< From the serial stage replay.
};

/// Self time per layer, summed over every traced query.
struct Attribution {
  double LayerMs[static_cast<size_t>(Layer::Count)] = {};
  double E2eMs = 0; ///< Sum of root span durations.
  size_t Queries = 0;

  double layerMs(Layer L) const { return LayerMs[static_cast<size_t>(L)]; }
  double sumMs() const {
    double S = 0;
    for (double V : LayerMs)
      S += V;
    return S;
  }
};

/// What checkNesting() found.
struct Nesting {
  /// Timed (not grafted) spans that stick out of their parent or into a
  /// timed sibling by more than the slack.
  size_t Violations = 0;
  int64_t WorstExcessNs = 0;
  /// Grafted stage time, and the duration of the spans it is grafted
  /// under, summed over every such parent.
  double GraftedMs = 0, GraftParentMs = 0;
  size_t GraftParents = 0;
  size_t GraftOverruns = 0; ///< Parents shorter than their grafted stages.
};

/// Span sink (filled on one thread once a traced pass has ended).
class SpanRecorder {
public:
  uint64_t newId() { return NextId++; }
  void add(const Span &S) { Spans.push_back(S); }
  void reserve(size_t N) { Spans.reserve(N); }
  size_t size() const { return Spans.size(); }

  Attribution attribute() const;
  /// Checks that every timed span lies inside its parent and after its
  /// preceding timed sibling, within \p SlackNs, and totals the grafted
  /// stage time against the spans it sits under. (Grafted spans come from
  /// another execution of the same input, so one query's stages may
  /// overrun its live span; only their total is meaningful.)
  Nesting checkNesting(int64_t SlackNs) const;
  /// Writes every span as TSV (query, id, parent, name, start, end,
  /// grafted; times in ns from the first span).
  bool write(const std::string &Path) const;

private:
  uint64_t NextId = 1;
  std::vector<Span> Spans;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
