//===- perfbench/src/Inputs.h - Frozen benchmark inputs ---------*- C++ -*-===//
///
/// \file
/// The benchmark's inputs live as plain files under perfbench/inputs/:
///
///   pool.tsv    one verified pool entry per line:
///               kind \t domain \t canonical-index \t text \t expected
///   stream.tsv  one pool index per line: the replayed stream
///   MANIFEST    seed, entry counts and the library's stream digest
///
/// They are written once by `perfbench regen --seed N` (which runs the
/// library's WorkloadGenerator, including its zero-load verification) and
/// only read afterwards, so a parent and a change replay byte-identical
/// inputs and no run pays for pool construction. `expected` is the
/// normalized ground-truth codelet of the entry's dataset case; it is
/// empty for near-misses, whose correct answer is no expression.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include "eval/Workload.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// A pool entry as the benchmark replays it: dggt::WorkloadEntry with the
/// domain by name.
struct Entry {
  dggt::WorkloadKind K = dggt::WorkloadKind::Canonical;
  std::string Domain;
  uint32_t CanonicalIndex = 0;
  std::string Text;
  std::string Expected;

  bool expectOk() const { return K != dggt::WorkloadKind::NearMiss; }
};

struct Inputs {
  std::vector<Entry> Pool;
  std::vector<uint32_t> Stream; ///< Pool indices, frozen order.
  uint64_t PoolSeed = 0;
  std::string LibraryStreamDigest; ///< As recorded by regen.
  uint64_t FileDigest = 0;         ///< FNV-1a over pool.tsv + stream.tsv.
};

/// 64-bit FNV-1a, continuing from \p H.
uint64_t fnv1a(std::string_view Bytes, uint64_t H = 0xcbf29ce484222325ull);

/// Reads and validates the three files under \p Dir.
bool loadInputs(const std::string &Dir, Inputs &Out, std::string &Error);

/// Rebuilds the files under \p Dir from pool seed \p Seed; the stream is
/// the first 15,000 queries of that seed's stream. Returns a process exit
/// code.
int regenerateInputs(uint64_t Seed, const std::string &Dir);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
