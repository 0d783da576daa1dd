// The two open-loop workloads on a 2-shard ShardedServingFleet serving
// pointwise AW-MoE-CL:
//
//   search_fresh    12-candidate pages, repeat rate 0: every request
//                   misses the level-1 score cache, so time goes to the
//                   async queue, the forward and the kernels.
//   paging_repeat   48-candidate requests (4 pages) at repeat rate 0.8,
//                   with a same-shape model published at fixed
//                   intervals: the caches do most of the work and each
//                   publish retires them cold.
//
// One generator thread sends Poisson arrivals at a fixed offered rate
// and never waits on a response; each request is timed from its due
// time (generator lateness + the engine's submit-to-scores latency).
// A run is: warm-up; nominal-rate slices (end-to-end latency, CPU)
// alternating with the rungs of a fixed rate ladder (slo_qps); then
// verification of a sampled share of the nominal responses against a
// private single-replica, caches-off engine on a clone of the version
// that served them.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/load_model.h"
#include "core/aw_moe.h"
#include "data/jd_synthetic.h"
#include "models/model_dims.h"
#include "serving/serving_engine.h"
#include "serving/shard.h"
#include "util/check.h"
#include "util/rng.h"
#include "workloads.h"

namespace awmoe {
namespace perfbench {

namespace {

using bench::RepeatMixSampler;
using bench::RequestDraw;
using bench::SyntheticSessionId;

constexpr char kModel[] = "aw-moe-cl";
constexpr int kShards = 2;
constexpr int64_t kUsers = 1000000;
constexpr double kZipfExponent = 1.05;
/// Admission deadline: generous, so only a sustained overload sheds,
/// never a host stall at the nominal rate.
constexpr double kDeadlineMs = 500.0;
/// Every Nth nominal response is verified.
constexpr int64_t kVerifyEvery = 16;
/// Share of --seconds at the nominal rate; the rest is the rate ladder.
constexpr double kNominalShare = 0.4;
/// Windows of a ladder rung's quiet-window p99 (LowerQuartile of
/// WindowP99s): length and fewest requests.
constexpr double kRungWindowS = 0.25;
constexpr size_t kMinWindowCount = 100;
/// The latency limit of slo_qps. Loose enough that host stalls of tens
/// of milliseconds do not end the walk; past capacity the backlog test
/// fails first anyway.
constexpr double kSloP99LimitMs = 50.0;
/// Slack of a rung's backlog test (see Judge): a host stall leaves a
/// short backlog that this absorbs, a real overload outgrows it.
constexpr double kBacklogMarginMs = 5.0;
/// Requests replayed through the layers in a traced run.
constexpr int64_t kReplayRequests = 200;

/// Fixed per-workload constants (recorded in BENCHMARK.json's `why`
/// lines and perfbench/README.md); never recalibrated per run.
struct FleetSpec {
  const char* name;
  int64_t pages;  // 12-candidate pages per request.
  double repeat_rate;
  double nominal_qps;
  /// Rate ladder for slo_qps: ladder_first * ladder_ratio^k, k < rungs.
  double ladder_first;
  double ladder_ratio;
  int ladder_rungs;
  double publish_every_s;  // 0 = no publishes.
  /// Length of one nominal slice (one sample of each LowerQuartile) and
  /// of one ladder rung. paging_repeat's equal its publish interval, so
  /// every slice and every rung holds one publish and the cold caches
  /// after it.
  double slice_s;
  double rung_s;
};

// The nominal rates sit far below the knee; the ladders start at a
// third to a half of it and reach about twice it (perfbench/README.md
// has the knees measured on a busy and on a quiet host).
FleetSpec SearchFreshSpec() {
  return FleetSpec{"search_fresh", 1, 0.0, 3000.0, 9000.0, 1.1, 22,
                   0.0, 0.5, 0.4};
}

FleetSpec PagingRepeatSpec() {
  return FleetSpec{"paging_repeat", 4, 0.8, 1000.0, 4500.0, 1.12, 17,
                   0.5, 0.5, 0.5};
}

std::vector<double> LadderRates(const FleetSpec& spec) {
  std::vector<double> rates;
  double rate = spec.ladder_first;
  for (int k = 0; k < spec.ladder_rungs; ++k, rate *= spec.ladder_ratio) {
    rates.push_back(rate);
  }
  return rates;
}

std::unique_ptr<Ranker> NewModel(const DatasetMeta& meta, uint64_t seed) {
  AwMoeConfig config;
  config.dims = ModelDims::Default();
  config.name = "AW-MoE & CL";
  Rng rng(seed);
  return std::make_unique<AwMoeRanker>(meta, config, &rng);
}

/// The served system. Declaration order matters: the fleet points at
/// the standardizer and its requests at the corpus, so it goes last
/// (destroyed first).
struct FleetSystem {
  DatasetMeta meta;
  Standardizer standardizer;
  std::vector<Example> corpus;
  std::vector<std::vector<const Example*>> pages;
  /// Reference copy of every published version, for verification.
  std::mutex versions_mu;
  std::map<int64_t, std::unique_ptr<Ranker>> versions;
  /// Models the publisher thread will publish, built in set-up.
  std::vector<std::unique_ptr<Ranker>> to_publish;
  std::unique_ptr<ShardedServingFleet> fleet;
};

std::unique_ptr<FleetSystem> SetUpFleet(const FleetSpec& spec,
                                        const RunConfig& config) {
  JdConfig jd;
  jd.seed = config.seed;
  jd.train_sessions = config.tiny ? 60 : 200;  // Feeds the standardizer.
  jd.test_sessions = config.tiny ? 80 : 2000;  // The page corpus.
  jd.longtail1_sessions = 5;
  jd.longtail2_sessions = 5;
  if (config.tiny) {
    jd.num_users = 400;
    jd.num_items = 300;
  }
  JdDataset data = JdSyntheticGenerator(jd).Generate();

  auto sys = std::make_unique<FleetSystem>();
  sys->meta = data.meta;
  sys->standardizer.Fit(data.train);
  sys->corpus = std::move(data.full_test);
  sys->pages = GroupBySession(sys->corpus);

  FleetOptions options;
  options.num_shards = kShards;
  options.engine.max_batch_items = 64;
  options.engine.max_queue_delay_ms = 0.5;
  options.engine.async_flush_lanes = 1;
  options.admission.default_deadline_ms = kDeadlineMs;
  sys->fleet = std::make_unique<ShardedServingFleet>(
      sys->meta, &sys->standardizer, options);

  std::unique_ptr<Ranker> model = NewModel(sys->meta, 7);
  sys->versions[1] = model->Clone();
  sys->fleet->RegisterOwned(kModel, std::move(model));
  if (spec.publish_every_s > 0.0) {
    const int64_t publishes =
        static_cast<int64_t>(std::ceil(config.seconds / spec.publish_every_s)) +
        1;
    for (int64_t p = 0; p < publishes; ++p) {
      sys->to_publish.push_back(
          NewModel(sys->meta, 1000 + static_cast<uint64_t>(p)));
    }
  }
  return sys;
}

/// The request of a draw; the same draw always maps to the same items,
/// so a repeat draw is a verbatim replay (a level-1 hit). A one-page
/// request is a single corpus page that advances with the variant, so
/// a fresh draw changes the whole session context and no cache level
/// can answer it. A multi-page request leads with the user's fixed home
/// page, whose first item carries the gate and encoding context, then
/// pages - 1 result pages that advance with the variant: a fresh draw
/// is the same session over new candidates (level-1 miss, gate and
/// encoding hits while the session's rows stay cached).
RankRequest MakeRequest(const FleetSystem& sys, const RequestDraw& draw,
                        int64_t pages) {
  RankRequest request;
  request.session_id = SyntheticSessionId(draw.rank);
  const int64_t n = static_cast<int64_t>(sys.pages.size());
  for (int64_t p = 0; p < pages; ++p) {
    const int64_t advance = pages == 1 || p > 0 ? 7919 * draw.variant : 0;
    const auto& page =
        sys.pages[static_cast<size_t>((draw.rank + advance + 131 * p) % n)];
    request.items.insert(request.items.end(), page.begin(), page.end());
  }
  return request;
}

struct Sample {
  RequestDraw draw;
  int64_t version = 0;
  std::vector<double> scores;
};

/// One open-loop phase at a fixed offered rate.
struct PhaseOutcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Due-time latency of every request in arrival order; +inf for a
  /// failed (shed or rejected) one, so it misses any limit.
  std::vector<double> latency_ms;
  std::vector<double> due_s;
  std::vector<double> late_ms;
  std::vector<double> queue_ms;
  std::vector<double> service_ms;
  int64_t repeat_draws = 0;
  int64_t repeat_misses = 0;
  double cpu_s = 0.0;
  std::vector<Sample> samples;
  std::vector<RequestDraw> first_draws;

  /// Latency of OK requests only.
  std::vector<double> OkLatencies() const {
    std::vector<double> ok;
    ok.reserve(latency_ms.size());
    for (double l : latency_ms) {
      if (std::isfinite(l)) ok.push_back(l);
    }
    return ok;
  }
};

PhaseOutcome RunPhase(FleetSystem* sys, const FleetSpec& spec,
                      RepeatMixSampler* sampler, Rng* arrival_rng,
                      double rate_qps, double seconds, bool keep_samples) {
  std::vector<double> due_s;
  for (double t = arrival_rng->Exponential(rate_qps); t < seconds;
       t += arrival_rng->Exponential(rate_qps)) {
    due_s.push_back(t);
  }
  std::vector<RequestDraw> draws(due_s.size());
  for (RequestDraw& draw : draws) draw = sampler->Next();

  PhaseOutcome out;
  out.attempted = static_cast<int64_t>(due_s.size());
  out.due_s = due_s;
  out.late_ms.resize(due_s.size());
  std::vector<std::future<RankResponse>> futures;
  futures.reserve(due_s.size());
  // The generator's own CPU (drawing, request building) is the
  // harness's; only its time inside Submit is charged to the system.
  const double cpu_start = ProcessCpuSeconds();
  const double generator_start = ThreadCpuSeconds();
  double submit_cpu_s = 0.0;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < due_s.size(); ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(due_s[i]));
    RankRequest request = MakeRequest(*sys, draws[i], spec.pages);
    // Sleep, not spin: a spinning generator would steal a core (or a
    // hyperthread sibling) from the flush lanes it is measuring. The
    // wake-up latency shows up in `late_ms` and in the due-time latency.
    std::this_thread::sleep_until(due);
    const Clock::time_point sent = Clock::now();
    out.late_ms[i] = MillisBetween(due, sent);
    const double submit_start = ThreadCpuSeconds();
    futures.push_back(sys->fleet->Submit(std::move(request)));
    submit_cpu_s += ThreadCpuSeconds() - submit_start;
  }
  const double generator_cpu_s = ThreadCpuSeconds() - generator_start;
  out.latency_ms.resize(due_s.size());
  for (size_t i = 0; i < futures.size(); ++i) {
    RankResponse response = futures[i].get();
    if (!response.status.ok()) {
      ++out.failed;
      out.latency_ms[i] = std::numeric_limits<double>::infinity();
      continue;
    }
    out.latency_ms[i] = out.late_ms[i] + response.latency_ms;
    out.queue_ms.push_back(response.queue_ms);
    out.service_ms.push_back(response.latency_ms - response.queue_ms);
    if (draws[i].repeat) {
      ++out.repeat_draws;
      if (!response.score_cache_hit) ++out.repeat_misses;
    }
    if (keep_samples && static_cast<int64_t>(i) % kVerifyEvery == 0) {
      out.samples.push_back(
          Sample{draws[i], response.model_version, std::move(response.scores)});
    }
  }
  out.cpu_s =
      ProcessCpuSeconds() - cpu_start - generator_cpu_s + submit_cpu_s;
  const size_t keep =
      std::min(draws.size(), static_cast<size_t>(kReplayRequests));
  out.first_draws.assign(draws.begin(), draws.begin() + keep);
  return out;
}

/// How far a rung is from meeting the limit, as a ratio (<= 1 meets):
/// the larger of its quiet-window p99 of due-time latency (failures
/// counted as +inf misses) over kSloP99LimitMs, and its backlog growth,
/// the median latency of the last quarter of arrivals over twice the
/// first quarter's plus kBacklogMarginMs. The backlog term is what finds
/// the knee: past capacity the queue, and the median with it, grows
/// through the rung.
struct RungVerdict {
  double p99_ms = 0.0;
  double excess = 0.0;
  bool meets() const { return excess <= 1.0; }
};

RungVerdict Judge(const PhaseOutcome& rung) {
  RungVerdict verdict;
  verdict.p99_ms = LowerQuartile(WindowP99s(rung.due_s, rung.latency_ms,
                                            kRungWindowS, kMinWindowCount));
  verdict.excess = verdict.p99_ms / kSloP99LimitMs;
  const size_t n = rung.latency_ms.size();
  if (n >= 8) {
    const auto begin = rung.latency_ms.begin();
    const double first = Median(std::vector<double>(begin, begin + n / 4));
    const double last =
        Median(std::vector<double>(begin + (n - n / 4), rung.latency_ms.end()));
    verdict.excess =
        std::max(verdict.excess, last / (2.0 * first + kBacklogMarginMs));
  }
  return verdict;
}

/// A ladder walk stops after kKneeMisses consecutive missed rungs (a
/// shorter run of misses may be host stalls; a longer one is the knee)
/// or at the top. Its figure is the last met rate before that closing
/// run of misses, interpolated linearly in `excess` towards the run's
/// first rung (its excess capped at 4) so the figure moves continuously
/// rather than in whole rungs.
constexpr size_t kKneeMisses = 3;
/// A walk after the first starts this many rungs below the last rung
/// the walk before it met (or below its own start, when it met none).
constexpr size_t kWalkRewind = 2;

/// Missed rungs at the end of the walk so far.
size_t TrailingMisses(const std::vector<RungVerdict>& verdicts) {
  size_t misses = 0;
  while (misses < verdicts.size() &&
         !verdicts[verdicts.size() - 1 - misses].meets()) {
    ++misses;
  }
  return misses;
}

bool WalkEnds(const std::vector<RungVerdict>& verdicts) {
  return TrailingMisses(verdicts) >= kKneeMisses;
}

/// The figure of one walk over `rates` (the ladder from the walk's
/// first rung).
double WalkQps(std::span<const double> rates,
               const std::vector<RungVerdict>& verdicts) {
  // First rung of the closing run of misses (none: the top was met).
  const size_t knee = verdicts.size() - TrailingMisses(verdicts);
  if (knee == 0) return 0.0;
  if (knee == verdicts.size()) return rates[knee - 1];
  const double below = verdicts[knee - 1].excess;
  const double above = std::min(verdicts[knee].excess, 4.0);
  const double share =
      above > below ? std::clamp((1.0 - below) / (above - below), 0.0, 1.0)
                    : 0.0;
  return rates[knee - 1] + share * (rates[knee] - rates[knee - 1]);
}

/// The ladder walks of one run, one rung at a time. The first walk
/// starts at the bottom; each later one kWalkRewind rungs below the
/// last rung met, so later walks spend their rungs near the knee.
/// slo_qps is the median of the walks' figures: those of the finished
/// walks that met a rung (a later walk that met none started above a
/// knee the host has since lowered, and gives no figure; the first
/// walk's 0 stands) and of the walk cut off by the end of the run when
/// it met a rung and then missed one (or, when no walk got that far,
/// the only walk's).
/// The knee moves with the host's speed over the few seconds a walk
/// spends near it; walks spread over the run sample several of those
/// stretches.
class LadderWalks {
 public:
  explicit LadderWalks(std::vector<double> rates) : rates_(std::move(rates)) {}

  size_t NextRung() const { return start_ + verdicts_.size(); }
  /// Walks finished so far, counting the current one as the next.
  size_t walk() const { return walks_; }

  void Record(const RungVerdict& verdict) {
    verdicts_.push_back(verdict);
    if (!WalkEnds(verdicts_) && NextRung() < rates_.size()) return;
    const size_t met = verdicts_.size() - TrailingMisses(verdicts_);
    if (met > 0 || start_ == 0) {
      finished_.push_back(WalkQps(Rates(), verdicts_));
    }
    ++walks_;
    const size_t last_met = met > 0 ? start_ + met - 1 : start_;
    start_ = last_met > kWalkRewind ? last_met - kWalkRewind : 0;
    verdicts_.clear();
  }

  /// The figures slo_qps is the median of.
  std::vector<double> Figures() const {
    std::vector<double> figures = finished_;
    const size_t misses = TrailingMisses(verdicts_);
    if ((misses > 0 && misses < verdicts_.size()) ||
        (figures.empty() && !verdicts_.empty())) {
      figures.push_back(WalkQps(Rates(), verdicts_));
    }
    return figures;
  }

  double SloQps() const {
    const std::vector<double> figures = Figures();
    return figures.empty() ? 0.0 : Median(figures);
  }

 private:
  std::span<const double> Rates() const {
    return std::span<const double>(rates_).subspan(start_);
  }

  std::vector<double> rates_;
  size_t start_ = 0;
  size_t walks_ = 0;
  std::vector<RungVerdict> verdicts_;
  std::vector<double> finished_;  // Figures of finished walks.
};

/// Publishes a pre-built model every `every_s` seconds until stopped,
/// timing each UpdateModel and keeping a reference copy per version.
class Publisher {
 public:
  Publisher(FleetSystem* sys, double every_s) : sys_(sys), every_s_(every_s) {
    if (every_s_ > 0.0) thread_ = std::thread([this] { Loop(); });
  }
  ~Publisher() { Stop(); }
  Publisher(const Publisher&) = delete;
  Publisher& operator=(const Publisher&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  /// Valid after Stop().
  const std::vector<double>& publish_ms() const { return publish_ms_; }

 private:
  void Loop() {
    Clock::time_point next =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(every_s_));
    size_t k = 0;
    while (k < sys_->to_publish.size()) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (cv_.wait_until(lock, next, [this] { return stop_; })) return;
      }
      std::unique_ptr<Ranker> model = std::move(sys_->to_publish[k++]);
      std::unique_ptr<Ranker> reference = model->Clone();
      const Clock::time_point start = Clock::now();
      const int64_t version = sys_->fleet->UpdateModel(kModel, std::move(model));
      publish_ms_.push_back(MillisBetween(start, Clock::now()));
      {
        std::lock_guard<std::mutex> lock(sys_->versions_mu);
        sys_->versions[version] = std::move(reference);
      }
      next += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(every_s_));
    }
  }

  FleetSystem* sys_;
  double every_s_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<double> publish_ms_;
  std::thread thread_;  // Last: uses every member above.
};

/// Ranks each sample alone on a private single-replica, caches-off
/// engine over a clone of the version that served it; returns the
/// number of responses that are not bitwise equal.
int64_t Verify(FleetSystem* sys, const FleetSpec& spec,
               const std::vector<Sample>& samples) {
  struct Reference {
    std::unique_ptr<ModelPool> pool;
    std::unique_ptr<ServingEngine> engine;  // After pool: destroyed first.
  };
  ServingEngineOptions caches_off;
  caches_off.gate_cache_capacity = 0;
  caches_off.score_cache_capacity = 0;
  caches_off.encoding_cache_capacity = 0;
  std::map<int64_t, Reference> references;
  int64_t mismatches = 0;
  std::lock_guard<std::mutex> lock(sys->versions_mu);
  for (const Sample& sample : samples) {
    auto it = references.find(sample.version);
    if (it == references.end()) {
      auto version = sys->versions.find(sample.version);
      if (version == sys->versions.end()) {
        ++mismatches;  // A version the harness never published.
        continue;
      }
      Reference ref;
      ref.pool = std::make_unique<ModelPool>(sys->meta, &sys->standardizer);
      ref.pool->RegisterOwned(kModel, version->second->Clone());
      ref.engine = std::make_unique<ServingEngine>(ref.pool.get(), caches_off);
      it = references.emplace(sample.version, std::move(ref)).first;
    }
    const RankResponse expected =
        it->second.engine->Rank(MakeRequest(*sys, sample.draw, spec.pages));
    const bool equal =
        expected.status.ok() && expected.scores.size() == sample.scores.size() &&
        std::memcmp(expected.scores.data(), sample.scores.data(),
                    sample.scores.size() * sizeof(double)) == 0;
    if (!equal) ++mismatches;
  }
  return mismatches;
}

/// Engine counters summed over the nominal slices only (a fleet
/// snapshot before and after each), so ladder rungs do not mix in.
struct NominalCounters {
  int64_t batches = 0;
  double batch_requests = 0.0;
  double batch_items = 0.0;
  int64_t score_hits = 0;
  int64_t score_misses = 0;
  int64_t encoding_hits = 0;
  int64_t encoding_misses = 0;
  int64_t gate_hits = 0;
  int64_t gate_misses = 0;

  void AddDelta(const ServingStatsSnapshot& before,
                const ServingStatsSnapshot& after) {
    batches += after.batches - before.batches;
    batch_requests += after.mean_batch_requests * after.batches -
                      before.mean_batch_requests * before.batches;
    batch_items += after.mean_batch_items * after.batches -
                   before.mean_batch_items * before.batches;
    score_hits += after.score_cache_hits - before.score_cache_hits;
    score_misses += after.score_cache_misses - before.score_cache_misses;
    encoding_hits += after.encoding_cache_hits - before.encoding_cache_hits;
    encoding_misses +=
        after.encoding_cache_misses - before.encoding_cache_misses;
    gate_hits += after.gate_cache_hits - before.gate_cache_hits;
    gate_misses += after.gate_cache_misses - before.gate_cache_misses;
  }

  /// The totals in snapshot form, with the cache gauges of `last`.
  ServingStatsSnapshot AsSnapshot(const ServingStatsSnapshot& last) const {
    ServingStatsSnapshot out;
    out.batches = batches;
    out.mean_batch_requests = batches > 0 ? batch_requests / batches : 0.0;
    out.mean_batch_items = batches > 0 ? batch_items / batches : 0.0;
    out.score_cache_hits = score_hits;
    out.score_cache_misses = score_misses;
    out.encoding_cache_hits = encoding_hits;
    out.encoding_cache_misses = encoding_misses;
    out.gate_cache_hits = gate_hits;
    out.gate_cache_misses = gate_misses;
    out.score_cache_bytes = last.score_cache_bytes;
    out.encoding_cache_bytes = last.encoding_cache_bytes;
    out.gate_cache_bytes = last.gate_cache_bytes;
    return out;
  }
};

/// Appends one nominal slice to the run's nominal record.
void AppendSlice(PhaseOutcome&& slice, PhaseOutcome* nominal) {
  auto append = [](std::vector<double>* into, const std::vector<double>& v) {
    into->insert(into->end(), v.begin(), v.end());
  };
  nominal->attempted += slice.attempted;
  nominal->failed += slice.failed;
  append(&nominal->latency_ms, slice.latency_ms);
  append(&nominal->late_ms, slice.late_ms);
  append(&nominal->queue_ms, slice.queue_ms);
  append(&nominal->service_ms, slice.service_ms);
  nominal->repeat_draws += slice.repeat_draws;
  nominal->repeat_misses += slice.repeat_misses;
  nominal->cpu_s += slice.cpu_s;
  for (Sample& sample : slice.samples) {
    nominal->samples.push_back(std::move(sample));
  }
  if (nominal->first_draws.empty()) {
    nominal->first_draws = std::move(slice.first_draws);
  }
}

RunResult RunFleetWorkload(const FleetSpec& spec, const RunConfig& config) {
  std::unique_ptr<FleetSystem> sys;
  const double setup_s = MedianSetupSeconds(
      [&] { sys.reset(); }, [&] { sys = SetUpFleet(spec, config); });

  RepeatMixSampler sampler(kUsers, kZipfExponent, spec.repeat_rate,
                           config.seed * 7919 + 1);
  Rng arrival_rng(config.seed * 104729 + 3);
  RunPhase(sys.get(), spec, &sampler, &arrival_rng, spec.nominal_qps,
           config.tiny ? 0.2 : 1.0, /*keep_samples=*/false);  // Warm-up.

  sys->fleet->ResetStats();
  Publisher publisher(sys.get(), spec.publish_every_s);
  // The nominal phase runs as fixed-length slices alternating with the
  // ladder rungs, so its samples span the whole run: host disturbances
  // come and go over seconds, and one nominal block can fall wholly
  // inside one. Each slice contributes one p50, p99 and CPU per request;
  // the end-to-end figures are their lower quartiles (LowerQuartile).
  // The ladder walks (LadderWalks) fill the rung slots.
  const std::vector<double> ladder = LadderRates(spec);
  LadderWalks walks(ladder);
  const double nominal_s = config.seconds * kNominalShare;
  const size_t slices = static_cast<size_t>(
      std::max(1.0, std::round(nominal_s / spec.slice_s)));
  const double slice_s = nominal_s / static_cast<double>(slices);
  const size_t rungs = static_cast<size_t>(std::max(
      1.0, std::round(config.seconds * (1.0 - kNominalShare) / spec.rung_s)));
  PhaseOutcome nominal;
  std::vector<double> slice_p50s;
  std::vector<double> slice_p99s;
  std::vector<double> slice_cpu_ms;
  NominalCounters counters;
  ServingStatsSnapshot last;
  std::string ladder_json = "[";
  for (size_t i = 0; i < std::max(slices, rungs); ++i) {
    if (i < slices) {
      const ServingStatsSnapshot before = sys->fleet->Stats().merged;
      PhaseOutcome slice = RunPhase(sys.get(), spec, &sampler, &arrival_rng,
                                    spec.nominal_qps, slice_s,
                                    /*keep_samples=*/true);
      last = sys->fleet->Stats().merged;
      counters.AddDelta(before, last);
      std::vector<double> sorted = slice.latency_ms;
      std::sort(sorted.begin(), sorted.end());
      slice_p50s.push_back(PercentileSorted(sorted, 0.50));
      slice_p99s.push_back(PercentileSorted(sorted, 0.99));
      const int64_t done = slice.attempted - slice.failed;
      if (done > 0) slice_cpu_ms.push_back(1e3 * slice.cpu_s / done);
      AppendSlice(std::move(slice), &nominal);
    }
    if (i >= rungs) continue;
    const double rate = ladder[walks.NextRung()];
    const size_t walk = walks.walk();
    const PhaseOutcome rung = RunPhase(sys.get(), spec, &sampler, &arrival_rng,
                                       rate, spec.rung_s,
                                       /*keep_samples=*/false);
    const RungVerdict verdict = Judge(rung);
    walks.Record(verdict);
    JsonObject row;
    row.Add("walk", static_cast<int64_t>(walk))
        .Add("offered_qps", rate)
        .Add("attempted", rung.attempted)
        .Add("failed", rung.failed)
        .Add("p99_ms", verdict.p99_ms)
        .Add("excess", verdict.excess)
        .Add("meets_limit", verdict.meets());
    ladder_json += (i > 0 ? ", " : "") + row.str();
  }
  ladder_json += "]";
  const FleetStats end_stats = sys->fleet->Stats();
  publisher.Stop();
  const double slo_qps = walks.SloQps();

  const int64_t mismatches = Verify(sys.get(), spec, nominal.samples);
  const LatencySummary latency = Summarize(nominal.OkLatencies());
  const LatencySummary late = Summarize(nominal.late_ms);
  const int64_t completed = nominal.attempted - nominal.failed;
  const ServingStatsSnapshot nominal_stats = counters.AsSnapshot(last);

  RunResult result;
  result.attempted = nominal.attempted;
  result.failed = nominal.failed + mismatches;
  // The deadline is far above the nominal rate's latency, so a shed or
  // failed nominal request is a fault, not load.
  result.correct = nominal.failed == 0 && mismatches == 0 && completed > 0;
  SetEndToEnd(&result, "setup_s", setup_s);
  SetEndToEnd(&result, "p50_ms", LowerQuartile(slice_p50s));
  SetEndToEnd(&result, "throughput_per_s", slo_qps);
  SetEndToEnd(&result, "cpu_ms_per_req", LowerQuartile(slice_cpu_ms));
  SetEndToEnd(&result, "peak_rss_mb", PeakRssMb());

  // Generator + one flush lane per shard (+ the publisher).
  result.threads = 1 + kShards + (spec.publish_every_s > 0.0 ? 1 : 0);
  result.report.Add("offered_qps", spec.nominal_qps)
      .Add("nominal_seconds", nominal_s)
      .Add("latency_from_due", latency.ToJson())
      .AddRaw("slice_p50s_ms", JsonArray(slice_p50s))
      .AddRaw("slice_p99s_ms", JsonArray(slice_p99s))
      .Add("p99_ms_lower_quartile_of_slices", LowerQuartile(slice_p99s))
      .Add("cpu_ms_per_req_whole_run",
           completed > 0 ? 1e3 * nominal.cpu_s / completed : 0.0)
      .Add("generator_late", late.ToJson())
      .Add("queue_wait", Summarize(nominal.queue_ms).ToJson())
      .Add("service", Summarize(nominal.service_ms).ToJson())
      .Add("fail_rate", static_cast<double>(result.failed) /
                            static_cast<double>(result.attempted))
      .Add("verified", static_cast<int64_t>(nominal.samples.size()))
      .Add("verification_mismatches", mismatches)
      .Add("slo_qps", slo_qps)
      .AddRaw("slo_qps_of_walks", JsonArray(walks.Figures()))
      .Add("slo_p99_limit_ms", kSloP99LimitMs)
      .AddRaw("ladder", ladder_json)
      .Add("score_cache_hit_ratio",
           HitRatio(nominal_stats.score_cache_hits,
                    nominal_stats.score_cache_misses))
      .Add("repeat_share", completed > 0 ? static_cast<double>(
                                               nominal.repeat_draws) /
                                               static_cast<double>(completed)
                                         : 0.0)
      .Add("publishes", static_cast<int64_t>(publisher.publish_ms().size()));

  if (config.trace) {
    std::vector<std::vector<const Example*>> replay;
    for (const RequestDraw& draw : nominal.first_draws) {
      replay.push_back(MakeRequest(*sys, draw, spec.pages).items);
    }
    const LayerReplay layers =
        ReplayRequests(*sys->versions.at(1), sys->meta, &sys->standardizer,
                       replay, 5, config.trace_out);
    const double service_p50 = Median(nominal.service_ms);
    SetPerLayer(&result, "nn.matmul_gflops",
                ExpertMatMulGflops(sys->meta, ModelDims::Default(), 48,
                                   MatMulPath::kInference,
                                   config.tiny ? 0.02 : 0.2));
    SetPerLayer(&result, "nn.sigmoid_us_per_row", layers.sigmoid_us_per_row);
    SetPerLayer(&result, "models.score_us_per_row", layers.score_us_per_row);
    SetPerLayer(&result, "models.gate_us_per_session",
                layers.gate_us_per_session);
    SetPerLayer(&result, "models.encode_us_per_session",
                layers.encode_us_per_session);
    SetPerLayer(&result, "models.tail_us_per_row", layers.tail_us_per_row);
    SetPerLayer(&result, "data.collate_us_per_row", layers.collate_us_per_row);
    SetPerLayer(&result, "serving.lease_us", layers.lease_us);
    SetPerLayer(&result, "serving.queue_wait_ms", Median(nominal.queue_ms));
    SetPerLayer(&result, "serving.service_ms", service_p50);
    SetServingStatsMetrics(nominal_stats, &result);
    SetPerLayer(&result, "serving.publish_ms", Median(publisher.publish_ms()));
    SetPerLayer(&result, "serving.post_swap_misses",
                static_cast<double>(nominal.repeat_misses));
    SetPerLayer(&result, "serving.shed_ratio", end_stats.shed_rate);
    SetPerLayer(&result, "serving.shard_imbalance", end_stats.imbalance);
    SetPerLayer(&result, "harness.gen_late_p99_ms", late.p99);
    SetPerLayer(&result, "trace.coverage",
                service_p50 > 0 ? layers.request_p50_ms / service_p50 : 0.0);
    SetPerLayer(&result, "trace.overhead_pct", layers.overhead_pct);
  }
  return result;
}

}  // namespace

RunResult RunSearchFresh(const RunConfig& config) {
  return RunFleetWorkload(SearchFreshSpec(), config);
}

RunResult RunPagingRepeat(const RunConfig& config) {
  return RunFleetWorkload(PagingRepeatSpec(), config);
}

}  // namespace perfbench
}  // namespace awmoe
