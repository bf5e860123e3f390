//===- perfbench/src/Inputs.cpp - Frozen benchmark inputs -----------------===//

#include "Inputs.h"

#include "domains/Domain.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace perfbench;

namespace {

/// Length of the frozen stream.
constexpr size_t StreamQueries = 15000;

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

std::vector<std::string_view> split(std::string_view S, char Sep) {
  std::vector<std::string_view> Out;
  size_t Start = 0;
  while (true) {
    size_t Pos = S.find(Sep, Start);
    Out.push_back(S.substr(Start, Pos - Start));
    if (Pos == std::string_view::npos)
      return Out;
    Start = Pos + 1;
  }
}

bool parseU64(std::string_view S, uint64_t &V) {
  if (S.empty())
    return false;
  V = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return false;
    V = V * 10 + static_cast<uint64_t>(C - '0');
  }
  return true;
}

} // namespace

uint64_t perfbench::fnv1a(std::string_view Bytes, uint64_t H) {
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

bool perfbench::loadInputs(const std::string &Dir, Inputs &Out,
                           std::string &Error) {
  std::string PoolText, StreamText, Manifest;
  if (!readFile(Dir + "/pool.tsv", PoolText) ||
      !readFile(Dir + "/stream.tsv", StreamText) ||
      !readFile(Dir + "/MANIFEST", Manifest)) {
    Error = "cannot read pool.tsv, stream.tsv or MANIFEST under " + Dir;
    return false;
  }
  Out.FileDigest = fnv1a(StreamText, fnv1a(PoolText));

  for (std::string_view Line : split(PoolText, '\n')) {
    if (Line.empty())
      continue;
    std::vector<std::string_view> F = split(Line, '\t');
    Entry E;
    uint64_t Canon = 0;
    bool KindOk = false;
    for (dggt::WorkloadKind K :
         {dggt::WorkloadKind::Canonical, dggt::WorkloadKind::Synonym,
          dggt::WorkloadKind::Refinement, dggt::WorkloadKind::NearMiss})
      if (F.size() == 5 && F[0] == dggt::workloadKindName(K)) {
        E.K = K;
        KindOk = true;
      }
    if (!KindOk || !parseU64(F[2], Canon) || F[3].empty() ||
        (E.expectOk() == F[4].empty())) {
      Error = "malformed pool line: " + std::string(Line);
      return false;
    }
    E.Domain = F[1];
    E.CanonicalIndex = static_cast<uint32_t>(Canon);
    E.Text = F[3];
    E.Expected = F[4];
    Out.Pool.push_back(std::move(E));
  }
  for (std::string_view Line : split(StreamText, '\n')) {
    if (Line.empty())
      continue;
    uint64_t Idx = 0;
    if (!parseU64(Line, Idx) || Idx >= Out.Pool.size()) {
      Error = "malformed stream line: " + std::string(Line);
      return false;
    }
    Out.Stream.push_back(static_cast<uint32_t>(Idx));
  }

  uint64_t WantPool = 0, WantStream = 0;
  for (std::string_view Line : split(Manifest, '\n')) {
    std::vector<std::string_view> F = split(Line, ' ');
    if (F.size() < 2)
      continue;
    if (F[0] == "seed")
      parseU64(F[1], Out.PoolSeed);
    else if (F[0] == "pool")
      parseU64(F[1], WantPool);
    else if (F[0] == "queries")
      parseU64(F[1], WantStream);
    else if (F[0] == "library_stream_digest")
      Out.LibraryStreamDigest = F[1];
  }
  if (WantPool != Out.Pool.size() || WantStream != Out.Stream.size() ||
      Out.Stream.empty()) {
    Error = "MANIFEST counts do not match pool.tsv/stream.tsv";
    return false;
  }
  return true;
}

int perfbench::regenerateInputs(uint64_t Seed, const std::string &Dir) {
  std::unique_ptr<dggt::Domain> TextEditing = dggt::makeTextEditingDomain();
  std::unique_ptr<dggt::Domain> AstMatcher = dggt::makeAstMatcherDomain();
  dggt::WorkloadOptions WO;
  WO.Seed = Seed;
  std::fprintf(stderr, "[perfbench] regen: building the verified pool for "
                       "seed %llu...\n",
               static_cast<unsigned long long>(Seed));
  dggt::WorkloadGenerator Gen({TextEditing.get(), AstMatcher.get()}, WO);
  std::vector<dggt::WorkloadQuery> Stream = Gen.stream(StreamQueries);

  std::string Pool;
  for (const dggt::WorkloadEntry &E : Gen.pool()) {
    for (const std::string *Field : {&E.Text, &E.Expected})
      if (Field->find_first_of("\t\n") != std::string::npos) {
        std::fprintf(stderr, "[perfbench] regen: tab or newline in '%s'\n",
                     Field->c_str());
        return 1;
      }
    Pool += std::string(dggt::workloadKindName(E.Kind)) + '\t' +
            Gen.domains()[E.DomainIndex]->name() + '\t' +
            std::to_string(E.CanonicalIndex) + '\t' + E.Text + '\t' +
            E.Expected + '\n';
  }
  std::string StreamText;
  for (const dggt::WorkloadQuery &Q : Stream)
    StreamText += std::to_string(Q.Pool) + '\n';

  const dggt::WorkloadPoolStats &PS = Gen.poolStats();
  char Digest[32];
  std::snprintf(Digest, sizeof(Digest), "%016llx",
                static_cast<unsigned long long>(Gen.streamDigest(Stream)));
  std::ostringstream M;
  M << "seed " << Seed << "\nqueries " << Stream.size() << "\npool "
    << PS.total() << "\ncanonical " << PS.Canonical << "\nsynonym "
    << PS.Synonym << "\nrefinement " << PS.Refinement << "\nnear_miss "
    << PS.NearMiss << "\ndropped_canonical " << PS.DroppedCanonical
    << "\ndropped_mutants " << PS.DroppedMutants << "\ndropped_near_misses "
    << PS.DroppedNearMisses << "\nlibrary_stream_digest " << Digest << "\n";

  for (const auto &[Name, Text] :
       {std::pair<const char *, std::string>{"pool.tsv", Pool},
        {"stream.tsv", StreamText},
        {"MANIFEST", M.str()}}) {
    std::ofstream Out(Dir + "/" + Name, std::ios::binary | std::ios::trunc);
    Out << Text;
    if (!Out) {
      std::fprintf(stderr, "[perfbench] regen: cannot write %s/%s\n",
                   Dir.c_str(), Name);
      return 1;
    }
  }
  std::fprintf(stderr,
               "[perfbench] regen: %zu pool entries, %zu stream queries, "
               "library stream digest %s, inputs digest %016llx\n",
               PS.total(), Stream.size(), Digest,
               static_cast<unsigned long long>(
                   fnv1a(StreamText, fnv1a(Pool))));
  return 0;
}
