//===- perfbench/src/main.cpp - The repository benchmark ------------------===//
//
// One binary, three workloads, all against the library's public API from
// a single process:
//
//   heavy-cold    the ASTMatcher canonical queries, once per round in a
//                 seeded order, one closed-loop caller of
//                 SynthesisService::query on stock options; both
//                 per-domain caches are invalidated before every round.
//   mixed-async   the frozen generated stream over both domains, sent
//                 closed-loop with a fixed number of queries outstanding
//                 into a warmed AsyncSynthesisService on stock options.
//   mixed-socket  the same stream, closed-loop over loopback
//                 POST /v1/synthesize into HttpEndpoint -> FrontTierRouter
//                 -> LocalUpstream shards.
//
// Every answer is checked against the frozen inputs (dataset ground
// truth; near-misses must get no expression). The last stdout line is
// one JSON object: end-to-end metrics with --trace 0, per-layer metrics
// from a traced pass with --trace 1 (see README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--inputs DIR] [--out DIR]
//   perfbench regen --seed N [--out DIR]
//
//===----------------------------------------------------------------------===//

#include "HttpClient.h"
#include "Inputs.h"
#include "Spans.h"

#include "domains/Domain.h"
#include "eval/Workload.h"
#include "grammar/PathCache.h"
#include "nlp/DependencyParser.h"
#include "nlp/GraphPruner.h"
#include "nlu/WordToApiMatcher.h"
#include "obs/Cost.h"
#include "obs/Export.h"
#include "obs/HttpEndpoint.h"
#include "obs/Metrics.h"
#include "obs/QueryLog.h"
#include "router/Router.h"
#include "service/AsyncSynthesisService.h"
#include "support/Arena.h"
#include "synth/Expression.h"
#include "synth/dggt/DggtSynthesizer.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <future>
#include <optional>
#include <string>
#include <sys/resource.h>
#include <thread>
#include <vector>

using namespace dggt;
using namespace perfbench;

namespace {

//===----------------------------------------------------------------------===//
// Fixed sizing (4-core host; see README.md)
//===----------------------------------------------------------------------===//

/// heavy-cold rounds per run: Seconds x this rate / round size.
constexpr double HeavyNominalQps = 75;
/// mixed-async rounds per run: Seconds x this rate / stream size.
constexpr double AsyncNominalQps = 6000;
/// mixed-async queries outstanding per service worker. Two keep every
/// worker's next query queued, so workers do not sleep between queries.
constexpr size_t AsyncWindowPerWorker = 2;
/// mixed-socket rounds per run: Seconds x this rate / stream size.
constexpr double SocketNominalQps = 2250;
/// Stack set-ups per run; setup_s is the fastest. (Builds slow down by
/// ~45% in host episodes of a fraction of a second; the minimum keeps
/// them out, where a median moves with their share of the builds.)
constexpr int SetupRepeats = 101;
/// Windows a measured pass is split into for throughput.
constexpr size_t Windows = 5;
constexpr unsigned SocketShards = 3;
/// A timed span may stick out of its parent, or into a timed sibling, by
/// at most this much (the service's report times are rounded to ns).
constexpr int64_t NestSlackNs = 5'000;
/// The replayed stage spans of a traced pass may exceed, in total, the
/// live spans they are grafted under by at most this share.
constexpr double GraftTolerance = 0.10;
/// High half of the trace id the loopback client stamps on every request
/// (the low half is the query's index), so the provider and upstream
/// wrappers can file their timestamps under the right query.
constexpr uint64_t TraceTag = 0x7065726662656e63ull;

enum class Workload { HeavyCold, MixedAsync, MixedSocket };
constexpr const char *WorkloadNames[] = {"heavy-cold", "mixed-async",
                                         "mixed-socket"};

uint64_t nproc() {
  return std::max(1u, std::thread::hardware_concurrency());
}

//===----------------------------------------------------------------------===//
// Answer checking
//===----------------------------------------------------------------------===//

enum Reason {
  WrongExpression,
  NearMissAnswered,
  NoAnswer,
  Deadline,
  Shed,
  Transport,
  NumReasons
};
constexpr const char *ReasonNames[] = {"wrong_expression", "near_miss_answered",
                                       "no_answer",        "deadline",
                                       "shed",             "transport"};

/// Verdict for one answer; nullopt when it is correct.
std::optional<Reason> classify(const Entry &E, bool TransportError,
                               ServiceStatus St, std::string_view Expr) {
  if (TransportError)
    return Transport;
  switch (St) {
  case ServiceStatus::Ok:
    if (!E.expectOk())
      return NearMissAnswered;
    if (normalizeExpression(Expr) != E.Expected)
      return WrongExpression;
    return std::nullopt;
  case ServiceStatus::DeadlineExceeded:
    return Deadline;
  case ServiceStatus::Overloaded:
  case ServiceStatus::CircuitOpen:
  case ServiceStatus::Cancelled:
  case ServiceStatus::Draining:
    return Shed;
  default:
    if (E.expectOk())
      return NoAnswer;
    return std::nullopt;
  }
}

/// Value of the first "Key":"..." string field of a flat JSON body.
std::optional<std::string> jsonString(std::string_view Body,
                                      std::string_view Key) {
  std::string Pat = "\"" + std::string(Key) + "\":\"";
  size_t Pos = Body.find(Pat);
  if (Pos == std::string_view::npos)
    return std::nullopt;
  std::string Out;
  for (size_t I = Pos + Pat.size(); I < Body.size(); ++I) {
    char C = Body[I];
    if (C == '"')
      return Out;
    if (C != '\\' || I + 1 >= Body.size()) {
      Out += C;
      continue;
    }
    char N = Body[++I];
    if (N == 'n')
      Out += '\n';
    else if (N == 't')
      Out += '\t';
    else if (N == 'r')
      Out += '\r';
    else if (N == 'u' && I + 4 < Body.size()) {
      Out += static_cast<char>(
          std::strtol(std::string(Body.substr(I + 1, 4)).c_str(), nullptr, 16));
      I += 4;
    } else
      Out += N;
  }
  return std::nullopt;
}

/// Service status named in a /v1/synthesize body; nullopt for transport
/// failures (no-upstream, connect-error, read-timeout) or garbage.
std::optional<ServiceStatus> bodyStatus(std::string_view Body) {
  std::optional<std::string> Name = jsonString(Body, "status");
  if (!Name)
    return std::nullopt;
  for (int S = 0; S <= static_cast<int>(ServiceStatus::Draining); ++S)
    if (serviceStatusName(static_cast<ServiceStatus>(S)) == *Name)
      return static_cast<ServiceStatus>(S);
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Per-query records
//===----------------------------------------------------------------------===//

/// One upstream call of a routed query (mixed-socket, traced).
struct Attempt {
  int64_t EnterNs = 0, ReturnNs = 0, DoneNs = 0;
  double QueueWaitMs = 0, TotalMs = 0;
};

/// Everything one measured query leaves behind.
struct QueryRecord {
  uint32_t Entry = 0;
  /// End-to-end interval.
  int64_t StartNs = 0, DoneNs = 0;
  ServiceStatus St = ServiceStatus::NoAnswer;
  bool TransportError = false;
  std::string Expression;
  // Layer boundaries, filled only by a traced pass.
  int64_t CallStartNs = 0, CallEndNs = 0; ///< service.query / submit().
  int64_t SentNs = 0, ProviderNs = 0, RouterDoneNs = 0;
  Attempt Att[4];
  unsigned NumAtt = 0;
  double QueueWaitMs = 0, TotalMs = 0;
  unsigned Attempts = 0, RouterRetries = 0;
  obs::CostCounters Cost;

  void fill(const ServiceReport &Rep) {
    St = Rep.St;
    Expression = Rep.Result.Expression;
  }
  /// The report fields the traced pass (and the heavy-cold determinism
  /// check) use.
  void fillTrace(const ServiceReport &Rep) {
    QueueWaitMs = Rep.QueueWaitMs;
    TotalMs = Rep.TotalSeconds * 1000.0;
    Attempts = static_cast<unsigned>(Rep.Attempts.size());
    Cost = Rep.Cost;
  }
};

struct Pass {
  std::vector<QueryRecord> Q;
  double CpuMs = 0;
};

/// User+sys CPU of the process (RUSAGE_SELF) or the calling thread
/// (RUSAGE_THREAD), in ms.
double cpuMs(int Who) {
  rusage U{};
  getrusage(Who, &U);
  return static_cast<double>(U.ru_utime.tv_sec + U.ru_stime.tv_sec) * 1e3 +
         static_cast<double>(U.ru_utime.tv_usec + U.ru_stime.tv_usec) / 1e3;
}

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * V.size()));
  return V[std::min(V.size() - 1, Rank ? Rank - 1 : 0)];
}

double median(std::vector<double> V) { return percentile(std::move(V), 50); }

//===----------------------------------------------------------------------===//
// The serving stack
//===----------------------------------------------------------------------===//

/// Traced pass state shared with the socket stack's wrappers: the record
/// array the provider and upstream wrappers write their timestamps into.
struct LiveTrace {
  std::atomic<QueryRecord *> Records{nullptr};
  std::atomic<size_t> Count{0};

  QueryRecord *find(const obs::QueryContext &Ctx) const {
    QueryRecord *R = Records.load(std::memory_order_acquire);
    if (!R || Ctx.TraceHi != TraceTag || Ctx.TraceLo == 0 ||
        Ctx.TraceLo > Count.load(std::memory_order_acquire))
      return nullptr;
    return R + (Ctx.TraceLo - 1);
  }
};

/// A shard as the router sees it: the LocalUpstream, with the benchmark's
/// timestamps taken around each call when a traced pass is live.
class TimedUpstream final : public router::Upstream {
public:
  TimedUpstream(std::shared_ptr<router::LocalUpstream> Inner,
                const LiveTrace &Live)
      : Inner(std::move(Inner)), Live(Live) {}

  const std::string &name() const override { return Inner->name(); }
  uint64_t call(const router::UpstreamQuery &Q, Callback Done) override {
    QueryRecord *R = Live.find(Q.Ctx);
    if (!R || R->NumAtt >= std::size(R->Att))
      return Inner->call(Q, std::move(Done));
    Attempt *A = &R->Att[R->NumAtt++];
    A->EnterNs = nowNs();
    uint64_t Token =
        Inner->call(Q, [A, Done = std::move(Done)](router::UpstreamResult U) {
          A->DoneNs = nowNs();
          A->QueueWaitMs = U.Report.QueueWaitMs;
          A->TotalMs = U.Report.TotalSeconds * 1000.0;
          Done(std::move(U));
        });
    A->ReturnNs = nowNs();
    return Token;
  }
  void cancel(uint64_t Token) override { Inner->cancel(Token); }
  obs::HealthStatus health() const override { return Inner->health(); }
  bool ready() const override { return Inner->ready(); }
  router::LocalUpstream &local() { return *Inner; }

private:
  std::shared_ptr<router::LocalUpstream> Inner;
  const LiveTrace &Live;
};

/// Both domains plus the workload's serving objects. Members destroy in
/// reverse order: the endpoint stops first, then the router drains, then
/// the services join their workers, then the domains go.
struct Stack {
  std::unique_ptr<Domain> TextEditing, AstMatcher;
  std::unique_ptr<SynthesisService> Serial;
  std::unique_ptr<AsyncSynthesisService> Async;
  std::vector<std::shared_ptr<TimedUpstream>> Shards;
  std::unique_ptr<router::FrontTierRouter> Router;
  LiveTrace Live;
  std::unique_ptr<obs::HttpEndpoint> Front;

  /// Every SynthesisService in the stack (cache stats are summed over
  /// them).
  std::vector<SynthesisService *> services() {
    std::vector<SynthesisService *> Out;
    if (Serial)
      Out.push_back(Serial.get());
    if (Async)
      Out.push_back(&Async->service());
    for (auto &S : Shards)
      Out.push_back(&S->local().service().service());
    return Out;
  }
};

std::unique_ptr<Stack> makeStack(Workload W) {
  auto S = std::make_unique<Stack>();
  S->TextEditing = makeTextEditingDomain();
  S->AstMatcher = makeAstMatcherDomain();
  auto AddDomains = [&](auto &Svc) {
    Svc.addDomain(*S->TextEditing);
    Svc.addDomain(*S->AstMatcher);
  };
  switch (W) {
  case Workload::HeavyCold:
    S->Serial = std::make_unique<SynthesisService>();
    AddDomains(*S->Serial);
    break;
  case Workload::MixedAsync: {
    AsyncOptions AO;
    // The submitting thread takes the remaining core.
    AO.Workers = static_cast<unsigned>(std::max<uint64_t>(1, nproc() - 1));
    S->Async = std::make_unique<AsyncSynthesisService>(AO);
    AddDomains(*S->Async);
    break;
  }
  case Workload::MixedSocket: {
    S->Router = std::make_unique<router::FrontTierRouter>();
    for (unsigned I = 0; I < SocketShards; ++I) {
      AsyncOptions AO;
      AO.Workers = 1; // One per shard; the client thread takes the rest.
      auto Svc = std::make_unique<AsyncSynthesisService>(AO);
      AddDomains(*Svc);
      auto Local = std::make_shared<router::LocalUpstream>(
          "shard-" + std::to_string(I), std::move(Svc));
      S->Shards.push_back(std::make_shared<TimedUpstream>(Local, S->Live));
      S->Router->addShard(S->Shards.back());
    }
    S->Front = std::make_unique<obs::HttpEndpoint>();
    router::FrontTierRouter *Router = S->Router.get();
    const LiveTrace *Live = &S->Live;
    S->Front->setSynthesizeProvider(
        [Router, Live](const obs::SynthesizeRequest &Req,
                       obs::HttpEndpoint::SynthesizeReply Reply) {
          QueryRecord *R = Live->find(Req.Ctx);
          if (R)
            R->ProviderNs = nowNs();
          router::UpstreamQuery Q;
          Q.Domain = Req.Domain;
          Q.Query = Req.Query;
          Q.BudgetMs = Req.BudgetMs;
          Q.Ctx = Req.Ctx;
          Router->routeAsync(
              std::move(Q), [R, Reply = std::move(Reply),
                             Domain = Req.Domain](const router::RouterReport &RR) {
                if (R) {
                  R->RouterDoneNs = nowNs();
                  R->RouterRetries = RR.Retries;
                  R->fillTrace(RR.Report);
                }
                obs::SynthesizeResponse Resp;
                Resp.Code = router::httpStatusFor(RR);
                Resp.Body = router::routerReportJson(RR, Domain);
                Reply(std::move(Resp));
              });
        });
    std::string Error;
    if (!S->Front->start(Error)) {
      std::fprintf(stderr, "[perfbench] endpoint failed to start: %s\n",
                   Error.c_str());
      return nullptr;
    }
    break;
  }
  }
  // Ready: text tables warm, domains registered, every shard ready.
  for (SynthesisService *Svc : S->services())
    if (!Svc->healthStatus().Ready)
      return nullptr;
  for (auto &Sh : S->Shards)
    if (!Sh->ready())
      return nullptr;
  return S;
}

//===----------------------------------------------------------------------===//
// Workload passes
//===----------------------------------------------------------------------===//

/// What a grammar or document reload does to a service: both per-domain
/// caches of every domain drop their entries.
void invalidateCaches(SynthesisService &Svc) {
  for (const std::string &Name : Svc.domainNames()) {
    Svc.pathCache(Name)->invalidateAll();
    Svc.wordCache(Name)->invalidateAll();
  }
}

/// heavy-cold: \p Rounds rounds of \p Order, one closed-loop caller, both
/// caches invalidated before every query (outside the timed call), so
/// each query does the same work whatever the order. \p AfterQuery runs
/// after each query, outside its timed interval.
void runHeavy(Stack &S, const Inputs &In, const std::vector<uint32_t> &Order,
              size_t Rounds, bool Traced, Pass &P,
              const std::function<void(size_t)> &AfterQuery = {}) {
  P.Q.assign(Rounds * Order.size(), QueryRecord());
  double Cpu0 = cpuMs(RUSAGE_SELF);
  for (size_t R = 0; R < Rounds; ++R) {
    for (size_t I = 0; I < Order.size(); ++I) {
      QueryRecord &Q = P.Q[R * Order.size() + I];
      const Entry &E = In.Pool[Order[I]];
      Q.Entry = Order[I];
      invalidateCaches(*S.Serial);
      Q.StartNs = nowNs();
      if (Traced)
        Q.CallStartNs = nowNs();
      ServiceReport Rep = S.Serial->query(E.Domain, E.Text);
      if (Traced)
        Q.CallEndNs = nowNs();
      Q.DoneNs = nowNs();
      Q.fill(Rep);
      Q.fillTrace(Rep);
      if (AfterQuery)
        AfterQuery(R * Order.size() + I);
    }
  }
  P.CpuMs = cpuMs(RUSAGE_SELF) - Cpu0;
}

/// mixed-async: the sequence sent closed-loop through submit(), keeping
/// AsyncWindowPerWorker queries per worker outstanding. The submitting
/// thread spins while the window is full, so it is never woken late; its
/// CPU is not the service's.
void runAsync(Stack &S, const Inputs &In, const std::vector<uint32_t> &Seq,
              bool Traced, Pass &P) {
  const size_t N = Seq.size();
  const size_t Window = S.Async->workers() * AsyncWindowPerWorker;
  P.Q.assign(N, QueryRecord());
  std::atomic<size_t> Done{0};
  double Cpu0 = cpuMs(RUSAGE_SELF) - cpuMs(RUSAGE_THREAD);
  for (size_t I = 0; I < N; ++I) {
    QueryRecord &Q = P.Q[I];
    const Entry &E = In.Pool[Seq[I]];
    Q.Entry = Seq[I];
    while (I - Done.load(std::memory_order_acquire) >= Window) {
    }
    Q.StartNs = nowNs();
    if (Traced)
      Q.CallStartNs = Q.StartNs;
    (void)S.Async->submit(E.Domain, E.Text, SubmitOptions{},
                          [&Q, &Done, Traced](const ServiceReport &Rep) {
                            Q.DoneNs = nowNs();
                            Q.fill(Rep);
                            if (Traced)
                              Q.fillTrace(Rep);
                            Done.fetch_add(1, std::memory_order_release);
                          });
    if (Traced)
      Q.CallEndNs = nowNs();
  }
  while (Done.load(std::memory_order_acquire) < N) {
  }
  P.CpuMs = cpuMs(RUSAGE_SELF) - cpuMs(RUSAGE_THREAD) - Cpu0;
}

std::string synthesizeRequest(const Entry &E, size_t TraceLo) {
  std::string Body = "{\"domain\":\"" + obs::escapeJson(E.Domain) +
                     "\",\"query\":\"" + obs::escapeJson(E.Text) + "\"}";
  char Tp[80];
  std::snprintf(Tp, sizeof(Tp), "00-%016llx%016llx-0000000000000001-00",
                static_cast<unsigned long long>(TraceTag),
                static_cast<unsigned long long>(TraceLo));
  return "POST /v1/synthesize HTTP/1.1\r\nHost: 127.0.0.1\r\n"
         "Content-Type: application/json\r\ntraceparent: " +
         std::string(Tp) + "\r\nContent-Length: " +
         std::to_string(Body.size()) + "\r\n\r\n" + Body;
}

unsigned socketConnections() {
  return static_cast<unsigned>(std::min<uint64_t>(4, nproc()));
}

/// mixed-socket: the sequence sent closed-loop over loopback HTTP.
void runSocket(Stack &S, const Inputs &In, const std::vector<uint32_t> &Seq,
               bool Traced, Pass &P) {
  const size_t N = Seq.size();
  P.Q.assign(N, QueryRecord());
  for (size_t I = 0; I < N; ++I)
    P.Q[I].Entry = Seq[I];
  if (Traced) {
    S.Live.Count.store(N, std::memory_order_release);
    S.Live.Records.store(P.Q.data(), std::memory_order_release);
  }
  // runClosedLoop drives the client on this thread; its CPU is not the
  // program's.
  double Cpu0 = cpuMs(RUSAGE_SELF) - cpuMs(RUSAGE_THREAD);
  runClosedLoop(
      S.Front->port(), N, socketConnections(),
      [&](size_t I) { return synthesizeRequest(In.Pool[Seq[I]], I + 1); },
      [&](size_t I, HttpResult &R) {
        QueryRecord &Q = P.Q[I];
        Q.StartNs = R.StartNs;
        Q.SentNs = R.SentNs;
        Q.DoneNs = R.DoneNs;
        std::optional<ServiceStatus> St;
        if (!R.TransportError)
          St = bodyStatus(R.Body);
        Q.TransportError = !St;
        if (St) {
          Q.St = *St;
          if (*St == ServiceStatus::Ok)
            Q.Expression = jsonString(R.Body, "codelet").value_or("");
        }
      });
  P.CpuMs = cpuMs(RUSAGE_SELF) - cpuMs(RUSAGE_THREAD) - Cpu0;
  S.Live.Records.store(nullptr, std::memory_order_release);
}

//===----------------------------------------------------------------------===//
// Shadow stage replay (traced run)
//===----------------------------------------------------------------------===//

constexpr size_t NumStages = 5;
using StageNs = std::array<int64_t, NumStages>;
constexpr const char *StageNames[NumStages] = {
    "nlp.parse", "nlp.prune", "nlu.word_to_api", "synth.edge_to_path",
    "synth.dggt"};
constexpr Layer StageLayers[NumStages] = {
    Layer::NlpParse, Layer::NlpPrune, Layer::NluWordToApi,
    Layer::SynthEdgeToPath, Layer::SynthDggt};

/// The pipeline stages called one by one, against caches that see the
/// same query sequence the service's caches saw.
class Shadow {
public:
  explicit Shadow(const Stack &S) {
    ServiceOptions Stock;
    for (const Domain *D : {S.TextEditing.get(), S.AstMatcher.get()}) {
      auto SD = std::make_unique<ShadowDomain>(ShadowDomain{
          D, std::make_unique<PathCache>(D->name(), Stock.PathCacheBytes),
          std::make_unique<ApiCandidateCache>(D->name(), Stock.WordCacheBytes),
          D->frontEnd().prepareFromGraph(DependencyGraph()).Limits});
      Domains.push_back(std::move(SD));
    }
    // DGGT-full's child budget on stock options.
    DggtBudgetMs = static_cast<uint64_t>(static_cast<double>(Stock.TotalBudgetMs) *
                                         Stock.RungBudgetFraction);
  }

  void invalidate() {
    for (auto &D : Domains) {
      D->Paths->invalidateAll();
      D->Words->invalidateAll();
    }
  }

  /// Runs \p E's steps 1-4, and DGGT too when \p Full, returning each
  /// stage's wall time (0 for a stage not run).
  StageNs run(const Entry &E, bool Full) {
    ShadowDomain &SD = *Domains[E.Domain == Domains[0]->D->name() ? 0 : 1];
    const SynthesisFrontEnd &FE = SD.D->frontEnd();
    queryArena().reset();
    obs::queryCost() = obs::CostCounters{};
    obs::queryCost().Populated = true;
    int64_t T0 = nowNs();
    DependencyGraph Raw = parseDependencies(E.Text);
    int64_t T1 = nowNs();
    PreparedQuery Q;
    Q.GG = &SD.D->grammarGraph();
    Q.Doc = &SD.D->document();
    Q.Limits = SD.Limits;
    Q.Pruned = pruneQueryGraph(Raw, FE.pruneOptions());
    int64_t T2 = nowNs();
    Q.Words = FE.matcher().mapGraph(Q.Pruned, SD.Words.get());
    int64_t T3 = nowNs();
    Q.Edges = buildEdgeToPath(*Q.GG, *Q.Doc, Q.Pruned, Q.Words, Q.Limits,
                              SD.Paths.get());
    int64_t T4 = nowNs();
    int64_t T5 = T4;
    if (Full && Q.allWordsMapped()) {
      Budget B(DggtBudgetMs);
      (void)Dggt.synthesize(Q, B);
      T5 = nowNs();
    }
    return {T1 - T0, T2 - T1, T3 - T2, T4 - T3, T5 - T4};
  }

private:
  struct ShadowDomain {
    const Domain *D;
    std::unique_ptr<PathCache> Paths;
    std::unique_ptr<ApiCandidateCache> Words;
    PathSearchLimits Limits;
  };
  std::vector<std::unique_ptr<ShadowDomain>> Domains;
  DggtSynthesizer Dggt;
  uint64_t DggtBudgetMs = 1000;
};

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

/// Layer totals of one traced pass, alongside its span tree.
struct LayerTotals {
  obs::CostCounters Cost; ///< Summed; arena field is the per-query max.
  uint64_t Shed = 0, Fallbacks = 0, Retries = 0;
  bool Complete = true; ///< Every routed query left its timestamps.
};

/// Builds each traced query's span tree from the boundaries its pass
/// recorded, grafting \p Stages (the stage replay) under the span of the
/// service call that ran the pipeline.
LayerTotals buildSpans(Workload W, const Inputs &In, const Pass &Traced,
                       const std::vector<StageNs> &Stages, SpanRecorder &Rec) {
  LayerTotals T;
  Rec.reserve(Traced.Q.size() * 12);
  for (size_t I = 0; I < Traced.Q.size(); ++I) {
    const QueryRecord &Q = Traced.Q[I];
    uint32_t Id = static_cast<uint32_t>(I);
    auto Add = [&](const char *Name, Layer L, uint64_t Parent, int64_t B,
                   int64_t E) {
      uint64_t SpanId = Rec.newId();
      Rec.add({Name, L, SpanId, Parent, Id, B, E, false});
      return SpanId;
    };
    auto Graft = [&](uint64_t Parent, int64_t B) {
      if (!Q.Cost.Populated)
        return;
      for (size_t St = 0; St < NumStages; ++St) {
        Rec.add({StageNames[St], StageLayers[St], Rec.newId(), Parent, Id, B,
                 B + Stages[I][St], true});
        B += Stages[I][St];
      }
    };
    // submit() until the service enqueued the query, then the queue wait
    // and the run as the service report states them, placed back from the
    // moment the completion arrived. What submit() does after the enqueue
    // overlaps the queue wait and the run, off the query's critical path,
    // and is not booked. The nesting check catches a report whose times
    // do not fit between the submit and the completion.
    auto ServiceSpans = [&](uint64_t Parent, int64_t SubmitB, int64_t SubmitE,
                            int64_t DoneNs, double QueueMs, double TotalMs,
                            bool WithStages) {
      int64_t RunB = DoneNs - static_cast<int64_t>(TotalMs * 1e6);
      int64_t Enq = RunB - static_cast<int64_t>(QueueMs * 1e6);
      Add("service.submit", Layer::ServiceSubmit, Parent, SubmitB,
          std::max(SubmitB, std::min(SubmitE, Enq)));
      Add("service.queue_wait", Layer::ServiceQueueWait, Parent, Enq, RunB);
      uint64_t Run =
          Add("service.run", Layer::ServiceSelf, Parent, RunB, DoneNs);
      if (WithStages)
        Graft(Run, RunB);
    };
    uint64_t Root = Add("query", Layer::Unattributed, 0, Q.StartNs, Q.DoneNs);
    switch (W) {
    case Workload::HeavyCold:
      Graft(Add("service.query", Layer::ServiceSelf, Root, Q.CallStartNs,
                Q.CallEndNs),
            Q.CallStartNs);
      break;
    case Workload::MixedAsync:
      ServiceSpans(Root, Q.CallStartNs, Q.CallEndNs, Q.DoneNs, Q.QueueWaitMs,
                   Q.TotalMs, true);
      break;
    case Workload::MixedSocket: {
      if (!Q.ProviderNs || !Q.RouterDoneNs || !Q.NumAtt) {
        T.Complete = false;
        break;
      }
      Add("http.request", Layer::HttpSelf, Root, Q.SentNs, Q.ProviderNs);
      uint64_t Route = Add("router.route", Layer::RouterSelf, Root,
                           Q.ProviderNs, Q.RouterDoneNs);
      for (unsigned K = 0; K < Q.NumAtt; ++K) {
        const Attempt &At = Q.Att[K];
        uint64_t Call = Add("upstream.call", Layer::RouterSelf, Route,
                            At.EnterNs, At.DoneNs);
        ServiceSpans(Call, At.EnterNs, At.ReturnNs, At.DoneNs, At.QueueWaitMs,
                     At.TotalMs, K + 1 == Q.NumAtt);
      }
      Add("http.response", Layer::HttpSelf, Root, Q.RouterDoneNs, Q.DoneNs);
      break;
    }
    }
    T.Cost.add(Q.Cost);
    T.Shed += classify(In.Pool[Q.Entry], Q.TransportError, Q.St,
                       Q.Expression) == Shed;
    T.Fallbacks += Q.Attempts > 1 ? Q.Attempts - 1 : 0;
    T.Retries += Q.RouterRetries;
  }
  return T;
}

/// Whether two heavy-cold runs of one query did the same DP work.
bool sameWork(const obs::CostCounters &A, const obs::CostCounters &B) {
  return A.PathSearches == B.PathSearches &&
         A.PathCacheHits == B.PathCacheHits && A.NodeVisits == B.NodeVisits &&
         A.InEdgeScans == B.InEdgeScans &&
         A.BitsetWordsTouched == B.BitsetWordsTouched &&
         A.MergeCandidates == B.MergeCandidates &&
         A.MergeSurvivors == B.MergeSurvivors &&
         A.ConflictChecks == B.ConflictChecks &&
         A.CgtFusionOps == B.CgtFusionOps;
}

struct Tally {
  uint64_t Attempted = 0, Failed = 0;
  uint64_t ByReason[NumReasons] = {};
};

void score(const Inputs &In, const Pass &P, Tally &T) {
  for (const QueryRecord &Q : P.Q) {
    ++T.Attempted;
    if (std::optional<Reason> R =
            classify(In.Pool[Q.Entry], Q.TransportError, Q.St, Q.Expression)) {
      ++T.Failed;
      ++T.ByReason[*R];
    }
  }
}

using RecordIt = std::vector<QueryRecord>::const_iterator;

double latencyPercentile(RecordIt B, RecordIt E, double P) {
  std::vector<double> Ms;
  for (RecordIt I = B; I != E; ++I)
    Ms.push_back(static_cast<double>(I->DoneNs - I->StartNs) / 1e6);
  return percentile(std::move(Ms), P);
}

double throughputOf(RecordIt B, RecordIt E) {
  int64_t First = B->StartNs, Last = B->DoneNs;
  for (RecordIt I = B; I != E; ++I) {
    First = std::min(First, I->StartNs);
    Last = std::max(Last, I->DoneNs);
  }
  return static_cast<double>(E - B) * 1e9 / static_cast<double>(Last - First);
}

/// Median of \p F over \p K contiguous windows of \p P's queries, window
/// edges on multiples of \p Align (whole heavy-cold rounds).
template <typename Fn>
double windowMedian(const Pass &P, size_t K, size_t Align, Fn F) {
  std::vector<double> V;
  const size_t Units = P.Q.size() / Align;
  K = std::clamp<size_t>(K, 1, Units);
  for (size_t W = 0; W < K; ++W)
    V.push_back(F(P.Q.begin() + static_cast<long>(Units * W / K * Align),
                  P.Q.begin() + static_cast<long>(Units * (W + 1) / K * Align)));
  return median(std::move(V));
}

struct CacheTotals {
  uint64_t PathHits = 0, PathMisses = 0, WordHits = 0, WordMisses = 0;
};

CacheTotals cacheTotals(Stack &S) {
  CacheTotals C;
  for (SynthesisService *Svc : S.services())
    for (const char *Name : {"TextEditing", "ASTMatcher"}) {
      PathCacheStats P = Svc->pathCache(Name)->stats();
      ApiCandidateCacheStats W = Svc->wordCache(Name)->stats();
      C.PathHits += P.Hits;
      C.PathMisses += P.Misses;
      C.WordHits += W.Hits;
      C.WordMisses += W.Misses;
    }
  return C;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

std::string metricsJson(const std::vector<Metric> &Ms) {
  std::string Out = "{";
  for (size_t I = 0; I < Ms.size(); ++I) {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  I ? ", " : "", Ms[I].Name.c_str(), Ms[I].Value, Ms[I].Unit);
    Out += Buf;
  }
  return Out + "}";
}

/// The checker must reject what it exists to reject: a mislabelled
/// expected expression and an answered near-miss, on a real answer and
/// on the same answer read back from a /v1/synthesize body.
bool selfCheck(const Inputs &In, Stack &S) {
  const Entry *Pos = nullptr, *Other = nullptr;
  for (const Entry &E : In.Pool)
    if (E.K == WorkloadKind::Canonical && E.Domain == S.TextEditing->name()) {
      if (!Pos)
        Pos = &E;
      else if (E.Expected != Pos->Expected) {
        Other = &E;
        break;
      }
    }
  if (!Pos || !Other)
    return false;
  ServiceOptions NoCache;
  NoCache.PathCacheBytes = 0;
  NoCache.WordCacheBytes = 0;
  SynthesisService Svc(NoCache);
  Svc.addDomain(*S.TextEditing);
  ServiceReport Rep = Svc.query(Pos->Domain, Pos->Text);
  std::string Body = serviceReportJson(Rep, Pos->Domain);
  std::string FromBody = jsonString(Body, "codelet").value_or("");
  Entry Mislabelled = *Pos;
  Mislabelled.Expected = Other->Expected;
  Entry AnsweredMiss = *Pos;
  AnsweredMiss.K = WorkloadKind::NearMiss;
  AnsweredMiss.Expected.clear();
  bool Ok = bodyStatus(Body) == ServiceStatus::Ok;
  for (std::string_view Expr : {std::string_view(Rep.Result.Expression),
                                std::string_view(FromBody)}) {
    Ok = Ok && !classify(*Pos, false, Rep.St, Expr) &&
         classify(Mislabelled, false, Rep.St, Expr) == WrongExpression &&
         classify(AnsweredMiss, false, Rep.St, Expr) == NearMissAnswered;
  }
  Ok = Ok && classify(*Pos, false, ServiceStatus::Overloaded, "") == Shed &&
       classify(*Pos, true, ServiceStatus::Ok, Rep.Result.Expression) ==
           Transport &&
       !classify(AnsweredMiss, false, ServiceStatus::NoAnswer, "");
  return Ok;
}

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  int Seconds = 20;
  bool Trace = false;
  std::string InputsDir = "perfbench/inputs";
  std::string OutDir = ".bench_build";
};

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --workload heavy-cold|mixed-async|mixed-socket "
               "--seed N --seconds S --trace 0|1 [--inputs DIR] [--out DIR]\n"
               "       %s regen --seed N [--out DIR]\n",
               Argv0, Argv0);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  if (argc > 1 && std::string_view(argv[1]) == "regen") {
    uint64_t Seed = 1;
    std::string Out = "perfbench/inputs";
    for (int I = 2; I + 1 < argc; I += 2) {
      std::string_view A = argv[I];
      if (A == "--seed")
        Seed = std::strtoull(argv[I + 1], nullptr, 10);
      else if (A == "--out")
        Out = argv[I + 1];
      else
        return usage(argv[0]);
    }
    if (Seed == 0)
      return usage(argv[0]);
    return regenerateInputs(Seed, Out);
  }

  Args A;
  for (int I = 1; I + 1 < argc; I += 2) {
    std::string_view K = argv[I];
    const char *V = argv[I + 1];
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V, nullptr, 10);
    else if (K == "--seconds")
      A.Seconds = std::atoi(V);
    else if (K == "--trace")
      A.Trace = std::string_view(V) == "1";
    else if (K == "--inputs")
      A.InputsDir = V;
    else if (K == "--out")
      A.OutDir = V;
    else
      return usage(argv[0]);
  }
  std::optional<Workload> W;
  for (int I = 0; I < 3; ++I)
    if (A.Workload == WorkloadNames[I])
      W = static_cast<Workload>(I);
  if (!W || A.Seconds < 1 || argc % 2 == 0)
    return usage(argv[0]);

  Inputs In;
  std::string Error;
  if (!loadInputs(A.InputsDir, In, Error)) {
    std::fprintf(stderr, "[perfbench] %s\n", Error.c_str());
    return 1;
  }

  // The round: heavy-cold replays the ASTMatcher canonical entries in a
  // seeded order; the mixed workloads replay the frozen stream rotated to
  // a seeded offset (sessions stay contiguous). Every workload is warmed
  // with one unmeasured round first.
  SplitMix64 Rng(A.Seed ^ 0x706572666265ull);
  std::vector<uint32_t> Round;
  size_t Rounds = 1;
  if (*W == Workload::HeavyCold) {
    for (uint32_t I = 0; I < In.Pool.size(); ++I)
      if (In.Pool[I].K == WorkloadKind::Canonical &&
          In.Pool[I].Domain == "ASTMatcher")
        Round.push_back(I);
    for (size_t I = Round.size(); I > 1; --I)
      std::swap(Round[I - 1], Round[Rng.nextBelow(I)]);
    Rounds = static_cast<size_t>(std::max(
        1.0, std::round(A.Seconds * HeavyNominalQps / Round.size())));
  } else {
    const size_t N = In.Stream.size();
    size_t Offset = Rng.nextBelow(N);
    for (size_t I = 0; I < N; ++I)
      Round.push_back(In.Stream[(Offset + I) % N]);
    double Nominal =
        *W == Workload::MixedAsync ? AsyncNominalQps : SocketNominalQps;
    Rounds = static_cast<size_t>(
        std::max(1.0, std::round(A.Seconds * Nominal / N)));
  }
  uint64_t FrozenDigest = 0xcbf29ce484222325ull, OrderDigest = FrozenDigest;
  std::vector<uint32_t> Frozen = Round;
  if (*W == Workload::HeavyCold)
    std::sort(Frozen.begin(), Frozen.end());
  else
    Frozen = In.Stream;
  for (uint32_t I : Frozen)
    FrozenDigest = fnv1a(In.Pool[I].Text + '\n', FrozenDigest);
  for (uint32_t I : Round)
    OrderDigest = fnv1a(In.Pool[I].Text + '\n', OrderDigest);
  std::printf("workload %s seed %llu: inputs digest %016llx (pool seed "
              "%llu, library stream digest %s), round digest %016llx, "
              "seeded order digest %016llx, %zu x %zu queries\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              static_cast<unsigned long long>(In.FileDigest),
              static_cast<unsigned long long>(In.PoolSeed),
              In.LibraryStreamDigest.c_str(),
              static_cast<unsigned long long>(FrozenDigest),
              static_cast<unsigned long long>(OrderDigest), Rounds,
              Round.size());

  // Set-up: domains plus the serving stack, up to ready, several times.
  std::vector<double> SetupS;
  std::unique_ptr<Stack> S;
  for (int I = 0; I < SetupRepeats; ++I) {
    S.reset();
    int64_t T0 = nowNs();
    S = makeStack(*W);
    SetupS.push_back(static_cast<double>(nowNs() - T0) / 1e9);
    if (!S) {
      std::fprintf(stderr, "[perfbench] serving stack did not come up\n");
      return 1;
    }
  }
  if (S->Router) {
    std::printf("ring owners: TextEditing -> %s, ASTMatcher -> %s (%u shards "
                "x 1 worker, %u client connections)\n",
                S->Router->shards().pick("TextEditing")->name().c_str(),
                S->Router->shards().pick("ASTMatcher")->name().c_str(),
                SocketShards, socketConnections());
  }
  if (!selfCheck(In, *S)) {
    std::fprintf(stderr, "[perfbench] answer checker self-check failed\n");
    return 1;
  }

  auto RunPass = [&](bool Traced, Pass &P, size_t NRounds,
                     const std::function<void(size_t)> &AfterQuery = {}) {
    if (*W == Workload::HeavyCold) {
      runHeavy(*S, In, Round, NRounds, Traced, P, AfterQuery);
      return;
    }
    std::vector<uint32_t> Seq;
    for (size_t R = 0; R < NRounds; ++R)
      Seq.insert(Seq.end(), Round.begin(), Round.end());
    if (*W == Workload::MixedAsync)
      runAsync(*S, In, Seq, Traced, P);
    else
      runSocket(*S, In, Seq, Traced, P);
  };
  // Warm-up, not measured: one round of the workload's own inputs.
  auto Warm = [&] {
    Pass P;
    RunPass(false, P, 1);
  };
  Warm();

  Pass Untraced;
  RunPass(false, Untraced, Rounds);
  Tally T;
  score(In, Untraced, T);
  std::vector<Pass *> Passes{&Untraced};

  bool Correct = true;
  auto Invalid = [&](const char *Why) {
    std::fprintf(stderr, "[perfbench] invalid run: %s\n", Why);
    Correct = false;
  };

  std::vector<Metric> Metrics;
  Pass Traced;
  if (A.Trace) {
    // The traced pass gets a fresh stack and the same warm-up, so it sees
    // the cache history the untraced pass saw.
    S.reset();
    S = makeStack(*W);
    if (!S) {
      std::fprintf(stderr, "[perfbench] serving stack did not come up\n");
      return 1;
    }
    Warm();
    obs::setMetricsEnabled(true);
    uint64_t Records0 = obs::queryLog().total();
    CacheTotals C0 = cacheTotals(*S);
    // Stage replay against shadow caches fed the same sequence. heavy-cold
    // replays each query right after its live call (same host state; the
    // caches start empty either way); the mixed workloads replay the
    // warm-up round and then the traced pass, once it has ended.
    // The mixed workloads trace one round, which bounds the serial
    // replay after the pass.
    Shadow Sh(*S);
    const size_t TracedRounds = *W == Workload::HeavyCold ? Rounds : 1;
    std::vector<StageNs> Stages(TracedRounds * Round.size());
    if (*W == Workload::HeavyCold) {
      RunPass(true, Traced, TracedRounds, [&](size_t I) {
        Sh.invalidate();
        Stages[I] = Sh.run(In.Pool[Round[I % Round.size()]], true);
      });
    } else {
      RunPass(true, Traced, TracedRounds);
    }
    uint64_t Records = obs::queryLog().total() - Records0;
    CacheTotals C1 = cacheTotals(*S);
    Passes.push_back(&Traced);
    Tally TT;
    score(In, Traced, TT);
    T.Attempted += TT.Attempted;
    T.Failed += TT.Failed;
    for (int R = 0; R < NumReasons; ++R)
      T.ByReason[R] += TT.ByReason[R];
    if (*W != Workload::HeavyCold) {
      for (uint32_t E : Round)
        Sh.run(In.Pool[E], false);
      for (size_t I = 0; I < Traced.Q.size(); ++I)
        Stages[I] = Sh.run(In.Pool[Traced.Q[I].Entry], true);
    }
    SpanRecorder Rec;
    LayerTotals LT = buildSpans(*W, In, Traced, Stages, Rec);
    if (!LT.Complete)
      Invalid("a routed query left no provider/upstream timestamps");
    const obs::CostCounters &Cost = LT.Cost;
    Attribution At = Rec.attribute();
    Nesting Nest = Rec.checkNesting(NestSlackNs);
    if (Nest.Violations)
      Invalid("a timed span lies outside its parent or overlaps a sibling");
    if (Nest.GraftedMs > (1.0 + GraftTolerance) * Nest.GraftParentMs)
      Invalid("the replayed stages take longer than the service spans they "
              "are grafted under");
    std::string TracePath = A.OutDir + "/trace-" + A.Workload + ".tsv";
    if (!Rec.write(TracePath))
      std::fprintf(stderr, "[perfbench] could not write %s\n",
                   TracePath.c_str());

    const double NQ = static_cast<double>(std::max<size_t>(1, At.Queries));
    double E2eMs = At.E2eMs / NQ;
    double UntracedE2eMs = 0;
    for (const QueryRecord &Q : Untraced.Q)
      UntracedE2eMs += static_cast<double>(Q.DoneNs - Q.StartNs) / 1e6;
    UntracedE2eMs /= static_cast<double>(std::max<size_t>(1, Untraced.Q.size()));
    auto PerQ = [&](Layer L) { return At.layerMs(L) / NQ; };
    auto PerQC = [&](uint64_t V) { return static_cast<double>(V) / NQ; };
    double SumMs = At.sumMs() / NQ;
    bool LogsQueries = *W != Workload::HeavyCold;
    if (LogsQueries && Records != Traced.Q.size())
      Invalid("query-log records != queries attempted");

    Metrics = {
        {"grammar.path_searches", PerQC(Cost.PathSearches), "count/query"},
        {"grammar.node_visits", PerQC(Cost.NodeVisits), "count/query"},
        {"grammar.in_edge_scans", PerQC(Cost.InEdgeScans), "count/query"},
        {"grammar.bitset_words", PerQC(Cost.BitsetWordsTouched), "count/query"},
        {"grammar.path_cache_hit_ratio",
         ratio(static_cast<double>(C1.PathHits - C0.PathHits),
               static_cast<double>(C1.PathHits - C0.PathHits + C1.PathMisses -
                                   C0.PathMisses)),
         "ratio"},
        {"nlp.parse_ms", PerQ(Layer::NlpParse), "ms"},
        {"nlp.prune_ms", PerQ(Layer::NlpPrune), "ms"},
        {"nlu.word_to_api_ms", PerQ(Layer::NluWordToApi), "ms"},
        {"nlu.word_cache_hit_ratio",
         ratio(static_cast<double>(C1.WordHits - C0.WordHits),
               static_cast<double>(C1.WordHits - C0.WordHits + C1.WordMisses -
                                   C0.WordMisses)),
         "ratio"},
        {"synth.edge_to_path_ms", PerQ(Layer::SynthEdgeToPath), "ms"},
        {"synth.dggt_ms", PerQ(Layer::SynthDggt), "ms"},
        {"synth.merge_candidates", PerQC(Cost.MergeCandidates), "count/query"},
        {"synth.merge_survivor_ratio",
         ratio(static_cast<double>(Cost.MergeSurvivors),
               static_cast<double>(Cost.MergeCandidates)),
         "ratio"},
        {"synth.conflict_checks", PerQC(Cost.ConflictChecks), "count/query"},
        {"synth.cgt_fusion_ops", PerQC(Cost.CgtFusionOps), "count/query"},
        {"service.submit_us", PerQ(Layer::ServiceSubmit) * 1000.0, "us"},
        {"service.queue_wait_ms", PerQ(Layer::ServiceQueueWait), "ms"},
        {"service.self_ms", PerQ(Layer::ServiceSelf), "ms"},
        {"service.shed", static_cast<double>(LT.Shed), "count"},
        {"service.fallback_attempts", static_cast<double>(LT.Fallbacks),
         "count"},
        {"router.self_ms", PerQ(Layer::RouterSelf), "ms"},
        {"router.retries", static_cast<double>(LT.Retries), "count"},
        {"obs.http_self_ms", PerQ(Layer::HttpSelf), "ms"},
        {"obs.querylog_records", static_cast<double>(Records), "count"},
        {"support.arena_high_water_bytes",
         static_cast<double>(Cost.ArenaHighWaterBytes), "bytes"},
        {"unattributed_ms", PerQ(Layer::Unattributed), "ms"},
        {"trace.e2e_ms", E2eMs, "ms"},
        {"trace.overhead_pct",
         UntracedE2eMs > 0 ? (E2eMs / UntracedE2eMs - 1.0) * 100.0 : 0.0,
         "%"},
    };
    std::printf("traced: %zu queries, %zu spans written to %s; layers + "
                "unattributed = %.4f ms = end-to-end %.4f ms (by "
                "construction); traced e2e %.4f ms vs untraced %.4f ms\n",
                Traced.Q.size(), Rec.size(), TracePath.c_str(), SumMs, E2eMs,
                E2eMs, UntracedE2eMs);
    std::printf("nesting: %zu timed spans outside their parent or over a "
                "sibling by > %.3f ms (worst %.4f ms); replayed stages "
                "%.4f ms vs the live spans they sit under %.4f ms per query "
                "(ratio %.4f, limit %.2f), %zu of %zu parents overrun\n",
                Nest.Violations, NestSlackNs / 1e6, Nest.WorstExcessNs / 1e6,
                Nest.GraftedMs / NQ, Nest.GraftParentMs / NQ,
                ratio(Nest.GraftedMs, Nest.GraftParentMs), 1.0 + GraftTolerance,
                Nest.GraftOverruns, Nest.GraftParents);
  } else {
    rusage U{};
    getrusage(RUSAGE_SELF, &U);
    double Completed = static_cast<double>(Untraced.Q.size());
    const size_t Align = *W == Workload::HeavyCold ? Round.size() : 1;
    // Throughput is the median over contiguous windows of the pass, so a
    // burst of host noise moves one window, not the result. Latency
    // percentiles are over the whole pass: every window holds different
    // queries, and a window's p99 moves with how many slow ones it got.
    Metrics = {
        {"setup_s", percentile(SetupS, 0), "s"},
        {"throughput_qps", windowMedian(Untraced, Windows, Align, throughputOf), "1/s"},
        {"latency_p50_ms",
         latencyPercentile(Untraced.Q.begin(), Untraced.Q.end(), 50), "ms"},
        {"latency_p99_ms",
         latencyPercentile(Untraced.Q.begin(), Untraced.Q.end(), 99), "ms"},
        {"cpu_ms_per_query", Untraced.CpuMs / Completed, "ms"},
        {"peak_rss_mb", static_cast<double>(U.ru_maxrss) / 1024.0, "MB"},
    };
    std::printf("latency over %zu samples: p50 %.4f ms, p99 %.4f ms; "
                "setup %.4f s (min of %d builds, median %.4f s)\n",
                Untraced.Q.size(), Metrics[2].Value, Metrics[3].Value,
                Metrics[0].Value, SetupRepeats, median(SetupS));
  }

  // heavy-cold: the DP is deterministic, so each query's cost vector
  // must repeat exactly in every round.
  if (*W == Workload::HeavyCold) {
    for (const Pass *P : Passes)
      for (size_t I = 0; I < P->Q.size(); ++I)
        if (!sameWork(Untraced.Q[I % Round.size()].Cost, P->Q[I].Cost)) {
          Invalid("a heavy-cold cost vector changed between rounds");
          break;
        }
  }
  std::printf("attempted %llu failed %llu:",
              static_cast<unsigned long long>(T.Attempted),
              static_cast<unsigned long long>(T.Failed));
  for (int R = 0; R < NumReasons; ++R)
    std::printf(" %s %llu", ReasonNames[R],
                static_cast<unsigned long long>(T.ByReason[R]));
  std::printf("\n{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(T.Attempted),
              static_cast<unsigned long long>(T.Failed),
              metricsJson(Metrics).c_str());
  std::fflush(stdout);
  // The stack (endpoint, router, worker pools) drains on destruction.
  S.reset();
  return 0;
}
