//===- perfbench/src/Spans.cpp - In-memory spans of the traced run --------===//

#include "Spans.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

using namespace perfbench;

Attribution SpanRecorder::attribute() const {
  std::unordered_map<uint64_t, double> ChildNs;
  ChildNs.reserve(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent)
      ChildNs[S.Parent] += static_cast<double>(S.EndNs - S.StartNs);
  Attribution A;
  for (const Span &S : Spans) {
    double Dur = static_cast<double>(S.EndNs - S.StartNs);
    auto It = ChildNs.find(S.Id);
    double Self = Dur - (It == ChildNs.end() ? 0.0 : It->second);
    A.LayerMs[static_cast<size_t>(S.L)] += Self / 1e6;
    if (!S.Parent) {
      A.E2eMs += Dur / 1e6;
      ++A.Queries;
    }
  }
  return A;
}

Nesting SpanRecorder::checkNesting(int64_t SlackNs) const {
  std::unordered_map<uint64_t, size_t> ById;
  ById.reserve(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    ById[Spans[I].Id] = I;
  std::unordered_map<uint64_t, std::vector<const Span *>> Timed;
  std::unordered_map<uint64_t, int64_t> GraftNs;
  Nesting N;
  auto Excess = [&](int64_t Ns) {
    if (Ns > SlackNs)
      ++N.Violations;
    N.WorstExcessNs = std::max(N.WorstExcessNs, Ns);
  };
  for (const Span &S : Spans) {
    if (!S.Parent)
      continue;
    if (S.Grafted) {
      GraftNs[S.Parent] += S.EndNs - S.StartNs;
      continue;
    }
    const Span &P = Spans[ById.at(S.Parent)];
    Excess(std::max(P.StartNs - S.StartNs, S.EndNs - P.EndNs));
    Timed[S.Parent].push_back(&S);
  }
  for (auto &[Parent, Children] : Timed) {
    std::sort(Children.begin(), Children.end(),
              [](const Span *A, const Span *B) {
                return A->StartNs < B->StartNs;
              });
    for (size_t I = 1; I < Children.size(); ++I)
      Excess(Children[I - 1]->EndNs - Children[I]->StartNs);
  }
  for (const auto &[Parent, Ns] : GraftNs) {
    const Span &P = Spans[ById.at(Parent)];
    N.GraftedMs += static_cast<double>(Ns) / 1e6;
    N.GraftParentMs += static_cast<double>(P.EndNs - P.StartNs) / 1e6;
    ++N.GraftParents;
    N.GraftOverruns += Ns > P.EndNs - P.StartNs;
  }
  return N;
}

bool SpanRecorder::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  int64_t Base = Spans.empty() ? 0 : Spans.front().StartNs;
  for (const Span &S : Spans)
    Base = std::min(Base, S.StartNs);
  std::fprintf(F, "query\tid\tparent\tname\tstart_ns\tend_ns\tgrafted\n");
  for (const Span &S : Spans)
    std::fprintf(F, "%u\t%llu\t%llu\t%s\t%lld\t%lld\t%d\n", S.Query,
                 static_cast<unsigned long long>(S.Id),
                 static_cast<unsigned long long>(S.Parent), S.Name,
                 static_cast<long long>(S.StartNs - Base),
                 static_cast<long long>(S.EndNs - Base), S.Grafted ? 1 : 0);
  return std::fclose(F) == 0;
}
