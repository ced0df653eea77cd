#include "consistency/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/shard_merge.hpp"
#include "trace/visit_schedule.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace cdnsim::consistency {

using topology::kProviderNode;
using topology::NodeId;
using trace::Version;

namespace {

// Event tags for the dispatch profiler. Tag 0 is sim::kUntaggedEvent;
// message deliveries map one tag per MessageKind so the profile breaks the
// dispatch loop down by what actually fired.
constexpr sim::EventTag kTagProviderUpdate = 1;
constexpr sim::EventTag kTagPollTick = 2;
constexpr sim::EventTag kTagAdaptTick = 3;
constexpr sim::EventTag kTagUserVisit = 4;
constexpr sim::EventTag kTagChurn = 5;
constexpr sim::EventTag kTagHorizon = 6;
constexpr sim::EventTag kTagFault = 7;    // brownout transitions
constexpr sim::EventTag kTagRetry = 8;    // reliable-delivery deadlines
constexpr sim::EventTag kTagVisitBatch = 9;
constexpr sim::EventTag kTagPubsubSettle = 10;  // flow-control confirmations
constexpr sim::EventTag kTagDeliveryBase = 11;
constexpr std::size_t kEngineTagCount =
    kTagDeliveryBase + net::kMessageKindCount;

// Per-node run-phase substream bases for the sharded engine. Offsetting by
// (node id + 1) gives every node — provider included — its own stateless
// stream, so the draw sequence is a function of the node, never of which
// lane or worker executed it.
constexpr std::uint64_t kShardNodeRngStream = 0x9a0d0000ull;
constexpr std::uint64_t kShardNodeFaultStream = 0x7a110000ull;

sim::EventTag delivery_tag(net::MessageKind kind) {
  return static_cast<sim::EventTag>(kTagDeliveryBase +
                                    static_cast<std::size_t>(kind));
}

/// Hard-state messages covered by the reliable-delivery layer: content or
/// notices a receiver cannot recover by its own polling.
bool reliable_kind(net::MessageKind kind) {
  return kind == net::MessageKind::kPushUpdate ||
         kind == net::MessageKind::kInvalidation ||
         kind == net::MessageKind::kFetchResponse ||
         kind == net::MessageKind::kCatchUpUpdate ||
         kind == net::MessageKind::kCatchUpNotice;
}

// Buckets span the regimes the paper reports: sub-TTL (seconds), the
// 10-60 s server TTLs of Sections 4-5, and pathological minutes-long
// windows under churn.
const std::vector<double>& inconsistency_bounds() {
  static const std::vector<double> bounds = {0.5,  1.0,  2.0,  5.0,   10.0,
                                             20.0, 30.0, 60.0, 120.0, 300.0};
  return bounds;
}

// Auto shard sizing: every lane pays a fixed per-round cost (barrier scan,
// merge-generation flip, worker wakeup), so scenarios below this many
// servers per lane run fastest with fewer lanes. Measured on fig20 --small
// (Release): below ~24 servers per lane the per-round overhead eats the
// parallel speedup.
constexpr std::size_t kAutoMinServersPerLane = 24;

}  // namespace

bool shard_supported(const EngineConfig& config) {
  const bool batched = config.visit_batching &&
                       config.user_attachment == UserAttachment::kPinnedLocal &&
                       !config.record_poll_log;
  return batched && !config.record_trace_events &&
         config.churn.failures_per_hour <= 0 && config.profiler == nullptr;
}

int resolved_shard_count(const EngineConfig& config, std::size_t server_count,
                         std::size_t hardware_threads) {
  if (config.shard.shards == 0) return 0;
  const std::size_t clamp_hi = std::max<std::size_t>(server_count, 1);
  if (config.shard.shards > 0) {
    return static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(config.shard.shards), clamp_hi));
  }
  CDNSIM_EXPECTS(config.shard.shards == EngineConfig::ShardConfig::kAuto,
                 "shard.shards must be kAuto (-1), 0 (off), or positive");
  if (!shard_supported(config)) return 0;
  if (hardware_threads == 0) {
    hardware_threads = util::ThreadPool::hardware_threads();
  }
  const std::size_t by_size =
      std::max<std::size_t>(1, server_count / kAutoMinServersPerLane);
  const std::size_t lanes = std::min(
      clamp_hi, std::min(std::max<std::size_t>(hardware_threads, 1), by_size));
  // Never zero for a supported config: auto must stay on the sharded driver
  // so its output is byte-identical to every explicit --shards N (classic
  // execution has different message timing — no epoch grid). A single
  // resolved lane still runs the full epoch loop and merge queue: on the
  // full fig20 grid it is a median 11 % slower per job than classic
  // (benchmark/README.md), the price of that invariance.
  return static_cast<int>(lanes);
}

// ---------------------------------------------------------------------------
// Internal state types
// ---------------------------------------------------------------------------

struct UpdateEngine::UserState {
  cdn::UserId id = 0;
  NodeId home_server = 0;
  // Sentinel -2: no previous server (kProviderNode is -1).
  NodeId last_server = -2;
  std::unique_ptr<sim::PeriodicTimer> visit_timer;  // legacy per-visit path
};

struct UpdateEngine::ServerState {
  NodeId id = 0;
  UpdateMethod method = UpdateMethod::kTtl;
  cdn::ReplicaRecorder recorder;
  net::Uplink uplink;

  std::unique_ptr<sim::PeriodicTimer> poll_timer;

  // Churn: a crashed server answers nothing and loses incoming messages.
  bool departed = false;

  // Invalidation / self-adaptive / rate-adaptive state.
  bool sa_in_invalidation_mode = false;
  Version invalid_known = 0;
  // Rate-adaptive controller window counters.
  std::uint64_t visits_in_window = 0;
  Version version_at_window_start = 0;
  std::unique_ptr<sim::PeriodicTimer> adapt_timer;
  bool fetch_in_flight = false;
  // Generation counter for the reliable fetch-RPC guard: bumped whenever a
  // (re)issued fetch arms a new deadline, so stale deadlines become no-ops.
  std::uint64_t fetch_epoch = 0;
  std::vector<NodeId> pending_child_fetches;
  struct PendingServe {
    UserState* user;
    sim::SimTime request_time;
    bool redirected;
  };
  std::vector<PendingServe> waiting_users;

  // Adaptive-TTL: origin time of the newest content we hold.
  sim::SimTime last_known_update_time = 0;

  const trace::AbsenceSchedule* absence = nullptr;

  // Batched-visit walk state: position in the precomputed arrival arrays,
  // the pending batch/pump event, and which of the two it is.
  std::size_t visit_cursor = 0;
  sim::EventHandle visit_event;
  bool visit_pumping = false;
  // Arrival time of the first unwalked visit (+inf when the schedule is
  // exhausted or the server has no batched schedule). Maintained alongside
  // visit_cursor so the flush-before-every-state-mutation callers can skip
  // the whole walk when the window is empty.
  sim::SimTime next_visit_time = std::numeric_limits<sim::SimTime>::infinity();

  bool has_pending_visits_before(sim::SimTime t) const {
    return next_visit_time < t;
  }

  // Run-length observation records from the bulk visit walk: schedule
  // entries [begin, end) all share one (version, answered) outcome.
  // Recording one run per walk instead of one fold per visit keeps the hot
  // walk free of scattered per-user writes; materialize_user_logs() folds
  // them into the user tallies once, after the run.
  struct VisitLogRun {
    std::uint32_t begin;
    std::uint32_t end;
    Version version;
    bool answered;
  };
  std::vector<VisitLogRun> visit_log_runs;

  // Per-server inconsistency-window histogram; fold_lane_stats() merges
  // these in ascending server order, so the floating-point sum is a pure
  // function of per-server contents in every execution mode.
  obs::Histogram inconsistency;

  // Parent-side subscription state for this node's notice-receiving
  // children (single-writer: only this node's lane touches it).
  SubscriptionState subs;

  ServerState(Version final_version, double uplink_kbps)
      : recorder(final_version),
        uplink(uplink_kbps),
        inconsistency(inconsistency_bounds()) {}

  bool absent_at(sim::SimTime t) const { return absence && absence->absent_at(t); }
  bool invalidation_active() const {
    return method == UpdateMethod::kInvalidation ||
           ((method == UpdateMethod::kSelfAdaptive ||
             method == UpdateMethod::kRateAdaptive) &&
            sa_in_invalidation_mode);
  }
};

// One in-flight reliable message. Shared between the delivery events (which
// may fire more than once: retransmissions, injected duplicates) and the
// retry deadlines; `delivered` makes the receiver-side action at-most-once
// and `acked` stops the retransmission chain.
struct UpdateEngine::ReliableState {
  NodeId from = 0;
  NodeId to = 0;
  net::MessageKind kind = net::MessageKind::kPushUpdate;
  double size_kb = 0;
  sim::EventAction action;
  bool delivered = false;
  bool acked = false;

  // Flow-controlled pub/sub transmissions: which subscriber credit this
  // message holds. The first of {ack, give-up} settles it (pubsub_settled
  // makes the settle at-most-once — retransmitted copies ack repeatedly).
  struct PubsubRef {
    PubsubChannel channel = PubsubChannel::kContent;
    pubsub::SubscriberId subscriber = 0;
    trace::Version version = 0;
    bool catch_up = false;
    std::uint64_t generation = 0;
    bool settled = false;
  };
  std::optional<PubsubRef> pubsub;
};

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

UpdateEngine::UpdateEngine(sim::Simulator& simulator,
                           const topology::NodeRegistry& nodes,
                           const trace::UpdateTrace& updates, EngineConfig config,
                           std::vector<trace::AbsenceSchedule> absences,
                           net::Uplink* shared_provider_uplink)
    : sim_(&simulator),
      nodes_(&nodes),
      updates_(nullptr),
      config_(config),
      rng_(config.seed),
      infra_(),
      latency_(config.latency),
      provider_uplink_(config.provider_uplink_kbps),
      shared_provider_uplink_(shared_provider_uplink),
      absences_(std::move(absences)) {
  CDNSIM_EXPECTS(config_.trace_offset_s >= 0, "trace offset must be >= 0");
  CDNSIM_EXPECTS(config_.user_poll_period_s > 0, "user poll period must be > 0");
  CDNSIM_EXPECTS(absences_.empty() || absences_.size() == nodes.server_count(),
                 "absence schedules must be empty or one per server");

  // Resolve the execution mode before anything observes it (bind_profiler
  // keeps event scopes off worker threads for sharded engines).
  visit_batching_ = config_.visit_batching &&
                    config_.user_attachment == UserAttachment::kPinnedLocal;
  int resolved_shards = resolved_shard_count(config_, nodes.server_count());
  // A shared provider uplink is a constructor argument, invisible to the
  // config-level auto resolution: degrade auto to classic here (an explicit
  // shard count still trips the precondition below).
  if (config_.shard.shards == EngineConfig::ShardConfig::kAuto &&
      shared_provider_uplink_ != nullptr) {
    resolved_shards = 0;
  }
  sharded_ = resolved_shards > 0;
  if (visit_batching_) {
    CDNSIM_EXPECTS(config_.visit_batch_epoch_s > 0,
                   "visit batch epoch must be positive");
  }
  if (sharded_) {
    CDNSIM_EXPECTS(config_.shard.epoch_s > 0, "shard epoch must be positive");
    CDNSIM_EXPECTS(config_.shard.workers >= 0,
                   "shard workers must be >= 0 (0 = auto)");
    CDNSIM_EXPECTS(visit_batching_,
                   "sharding requires batched visits (pinned attachment, "
                   "visit_batching on)");
    CDNSIM_EXPECTS(!config_.record_poll_log,
                   "sharding does not support a poll log");
    CDNSIM_EXPECTS(!config_.record_trace_events,
                   "sharding does not support trace-event recording");
    CDNSIM_EXPECTS(config_.churn.failures_per_hour <= 0,
                   "sharding does not support churn");
    CDNSIM_EXPECTS(shared_provider_uplink_ == nullptr,
                   "sharding does not support a shared provider uplink");
  }

  // Shift the trace so update v happens at update_time(v) + offset; all
  // engine-internal times use the shifted trace.
  std::vector<sim::SimTime> shifted;
  shifted.reserve(updates.times().size());
  for (sim::SimTime t : updates.times()) shifted.push_back(t + config_.trace_offset_s);
  shifted_updates_ = std::make_unique<trace::UpdateTrace>(std::move(shifted));
  updates_ = shifted_updates_.get();

  bind_profiler();

  util::Rng infra_rng = rng_.fork(0x1f7a);
  {
    obs::ProfileScope scope(profiler_, ps_tree_build_);
    infra_ = build_infrastructure(nodes, config_.infrastructure, config_.method,
                                  infra_rng);
  }

  provider_ = std::make_unique<cdn::Provider>(*updates_, config_.provider,
                                              rng_.fork(0x9807));

  // The injector draws from substream_seed(seed, kFaultStream) — stateless,
  // so constructing it here perturbs neither rng_ nor any fork above. The
  // sharded engine still builds it (brownout schedules come from plan());
  // per-message decisions there use the per-node injectors below.
  if (config_.fault.enabled) {
    injector_ =
        std::make_unique<fault::Injector>(config_.fault, nodes, config_.seed);
  }

  CDNSIM_EXPECTS(!config_.reliable.enabled ||
                     (config_.reliable.ack_timeout_s > 0 &&
                      config_.reliable.backoff_factor >= 1.0 &&
                      config_.reliable.max_retries >= 0),
                 "reliable delivery needs ack_timeout_s > 0, "
                 "backoff_factor >= 1 and max_retries >= 0");

  CDNSIM_EXPECTS(config_.pubsub.log_capacity > 0 &&
                     config_.pubsub.catchup_retry_s > 0,
                 "pubsub needs log_capacity > 0 and catchup_retry_s > 0");
  flow_ = pubsub::FlowController(config_.pubsub.flow_window);

  bind_metrics();
  bind_timeseries();

  const Version final_version = updates_->update_count();
  servers_.reserve(nodes.server_count());
  for (NodeId id : nodes.server_ids()) {
    auto s = std::make_unique<ServerState>(final_version, config_.server_uplink_kbps);
    s->id = id;
    s->method = infra_.method_of(id);
    if (!absences_.empty()) s->absence = &absences_[static_cast<std::size_t>(id)];
    servers_.push_back(std::move(s));
  }
  versions_.assign(servers_.size(), 0);
  rebuild_child_lists();

  end_time_ = updates_->duration() + config_.tail_s;

  // Execution lanes. A classic engine is lane 0 alone, driven by the
  // external simulator; sharded engines partition servers into contiguous
  // lanes, each with its own engine-owned Simulator, and anchor the
  // provider to lane 0.
  const std::size_t server_count = servers_.size();
  std::size_t lane_count = 1;
  if (sharded_) lane_count = static_cast<std::size_t>(resolved_shards);
  lanes_ = std::vector<Lane>(lane_count);
  lane_of_.assign(server_count + 1, 0);
  lanes_[0].sim = sim_;
  if (sharded_) {
    for (std::size_t i = 0; i < server_count; ++i) {
      lane_of_[i + 1] = static_cast<std::uint32_t>(i * lane_count / server_count);
    }
    lane_sims_ = std::make_unique<sim::Simulator[]>(lane_count);
    for (std::size_t i = 0; i < lane_count; ++i) lanes_[i].sim = &lane_sims_[i];
    merge_ = std::make_unique<sim::ShardMergeQueue>(lane_count);
    node_send_seq_.assign(server_count + 1, 0);
    node_rngs_.reserve(server_count + 1);
    if (config_.fault.enabled) node_injectors_.resize(server_count + 1);
    for (std::size_t idx = 0; idx < server_count + 1; ++idx) {
      node_rngs_.emplace_back(
          util::substream_seed(config_.seed, kShardNodeRngStream + idx));
      if (config_.fault.enabled) {
        node_injectors_[idx] = std::make_unique<fault::Injector>(
            config_.fault, nodes,
            util::substream_seed(config_.seed, kShardNodeFaultStream + idx));
      }
    }
  }
}

UpdateEngine::~UpdateEngine() {
  // servers_/users_ hold timers and event handles that may be registered on
  // the engine-owned lane simulators; members are destroyed in reverse
  // declaration order, which would free lane_sims_ (declared later) first
  // and leave the timer destructors cancelling into dead event queues.
  // Tear the handle owners down here, while lane_sims_ is still alive.
  users_.clear();
  servers_.clear();
}

// ---------------------------------------------------------------------------
// Lane anchoring
// ---------------------------------------------------------------------------

util::Rng& UpdateEngine::rng_of(NodeId node) {
  return sharded_ ? node_rngs_[static_cast<std::size_t>(node + 1)] : rng_;
}

fault::Injector* UpdateEngine::injector_of(NodeId node) {
  if (!sharded_) return injector_.get();
  if (node_injectors_.empty()) return nullptr;
  return node_injectors_[static_cast<std::size_t>(node + 1)].get();
}

UpdateEngine::SubscriptionState& UpdateEngine::subs_of(NodeId node) {
  if (node == kProviderNode) return provider_subs_;
  return servers_[static_cast<std::size_t>(node)]->subs;
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

static std::size_t method_index(UpdateMethod m) {
  return static_cast<std::size_t>(m);
}

void UpdateEngine::bind_metrics() {
  // Every slot is registered up front, even for methods this run never
  // assigns: the exported key set is then a function of nothing but the
  // code version, so outputs diff cleanly across configurations. Values
  // accumulate in LaneCounters / per-server histograms during the run and
  // land here in fold_lane_stats().
  for (std::size_t m = 0; m < kUpdateMethodCount; ++m) {
    const std::string suffix(to_string(static_cast<UpdateMethod>(m)));
    metrics_.counter("engine.updates_acquired." + suffix);
    metrics_.counter("engine.polls." + suffix);
    metrics_.counter("engine.fetches." + suffix);
    metrics_.counter("engine.invalidations." + suffix);
  }
  metrics_.counter("engine.mode_switches");
  metrics_.counter("engine.user_visits");
  metrics_.counter("engine.user_visits_unanswered");
  metrics_.counter("fault.messages_dropped");
  metrics_.counter("fault.partition_dropped");
  metrics_.counter("fault.messages_duplicated");
  metrics_.counter("fault.brownout_transitions");
  metrics_.counter("reliable.retries");
  metrics_.counter("reliable.give_ups");
  metrics_.counter("pubsub.live_deliveries");
  metrics_.counter("pubsub.suppressed_deliveries");
  metrics_.counter("pubsub.catch_up_messages");
  metrics_.counter("pubsub.catch_up_reads");
  metrics_.counter("pubsub.skipped_ahead");
  metrics_.counter("pubsub.lagging_enter");
  metrics_.counter("pubsub.lagging_exit");
  metrics_.histogram("engine.inconsistency_window_s", inconsistency_bounds());
}

void UpdateEngine::bind_profiler() {
  profiler_ = config_.profiler;
  // Event handlers run on worker threads under sharding; the Profiler is
  // single-threaded and stays with the driver (tree build, shard.merge).
  event_profiler_ = sharded_ ? nullptr : profiler_;
  if (profiler_ == nullptr) return;
  ps_send_ = profiler_->intern("engine.send");
  ps_version_ = profiler_->intern("engine.version");
  ps_timer_ = profiler_->intern("sim.timer");
  ps_poll_ = profiler_->intern("engine.poll");
  ps_fetch_ = profiler_->intern("engine.fetch");
  ps_invalidate_ = profiler_->intern("engine.invalidate");
  ps_push_ = profiler_->intern("engine.push");
  ps_mode_switch_ = profiler_->intern("engine.mode_switch");
  ps_tree_build_ = profiler_->intern("topology.build_tree");
  ps_repair_ = profiler_->intern("topology.repair");
  ps_shard_merge_ = profiler_->intern("shard.merge");

  tag_slots_.assign(kEngineTagCount, 0);
  tag_slots_[sim::kUntaggedEvent] = profiler_->intern("sim.untagged");
  tag_slots_[kTagProviderUpdate] = profiler_->intern("sim.provider_update");
  tag_slots_[kTagPollTick] = profiler_->intern("sim.poll_tick");
  tag_slots_[kTagAdaptTick] = profiler_->intern("sim.adapt_tick");
  tag_slots_[kTagUserVisit] = profiler_->intern("sim.user_visit");
  tag_slots_[kTagChurn] = profiler_->intern("sim.churn");
  tag_slots_[kTagHorizon] = profiler_->intern("sim.horizon");
  tag_slots_[kTagFault] = profiler_->intern("sim.fault");
  tag_slots_[kTagRetry] = profiler_->intern("sim.retry");
  tag_slots_[kTagVisitBatch] = profiler_->intern("sim.visit_batch");
  tag_slots_[kTagPubsubSettle] = profiler_->intern("sim.pubsub_settle");
  for (std::size_t k = 0; k < net::kMessageKindCount; ++k) {
    tag_slots_[kTagDeliveryBase + k] = profiler_->intern(
        "deliver." + std::string(to_string(static_cast<net::MessageKind>(k))));
  }
}

void UpdateEngine::bind_timeseries() {
  if (config_.timeseries == nullptr || config_.timeseries_sample_s <= 0) {
    return;
  }
  ts_ = config_.timeseries;
  CDNSIM_EXPECTS(ts_->column_count() == 0 && ts_->row_count() == 0,
                 "a TimeSeries may not be shared between engines");
  // Columns are bound in a fixed order so the layout is a function of the
  // code version alone — merged catalog series and cross-run diffs line up
  // without name lookups. Delta columns are named exactly like the
  // registry slots they telescope to, so check_obs.py can reconcile them.
  TsColumns& c = ts_cols_;
  c.updates_published = ts_->add_delta("consistency.updates_published");
  c.stale_replicas = ts_->add_gauge("consistency.stale_replicas");
  c.inflight_updates = ts_->add_gauge("consistency.inflight_updates");
  for (std::size_t m = 0; m < kUpdateMethodCount; ++m) {
    const std::string suffix(to_string(static_cast<UpdateMethod>(m)));
    c.open_windows[m] = ts_->add_gauge("consistency.open_windows." + suffix);
    c.acquired[m] = ts_->add_delta("engine.updates_acquired." + suffix);
    c.polls[m] = ts_->add_delta("engine.polls." + suffix);
    c.fetches[m] = ts_->add_delta("engine.fetches." + suffix);
    c.invalidations[m] = ts_->add_delta("engine.invalidations." + suffix);
  }
  c.mode_switches = ts_->add_delta("engine.mode_switches");
  c.visits = ts_->add_delta("engine.user_visits");
  c.visits_unanswered = ts_->add_delta("engine.user_visits_unanswered");
  c.fault_dropped = ts_->add_delta("fault.messages_dropped");
  c.fault_partition_dropped = ts_->add_delta("fault.partition_dropped");
  c.fault_duplicated = ts_->add_delta("fault.messages_duplicated");
  c.fault_brownouts = ts_->add_delta("fault.brownout_transitions");
  c.reliable_retries = ts_->add_delta("reliable.retries");
  c.reliable_give_ups = ts_->add_delta("reliable.give_ups");
  c.pubsub_live = ts_->add_delta("pubsub.live_deliveries");
  c.pubsub_suppressed = ts_->add_delta("pubsub.suppressed_deliveries");
  c.pubsub_catch_up_messages = ts_->add_delta("pubsub.catch_up_messages");
  c.pubsub_catch_up_reads = ts_->add_delta("pubsub.catch_up_reads");
  c.pubsub_skipped_ahead = ts_->add_delta("pubsub.skipped_ahead");
  c.pubsub_lagging = ts_->add_gauge("pubsub.lagging_subscribers");
  for (std::size_t k = 0; k < net::kMessageKindCount; ++k) {
    c.messages[k] = ts_->add_delta(
        "net.messages." +
        std::string(to_string(static_cast<net::MessageKind>(k))));
  }
  c.uplink_backlog = ts_->add_gauge("net.provider_uplink.backlog_s");
  c.uplink_brownout = ts_->add_gauge("net.provider_uplink.brownout");
}

// Records one row at ts_->next_sample_time(). The caller guarantees every
// event with time strictly before that point has fired and no later one
// has (classic: run_before(next_sample_time); sharded: sample points are
// interleaved with the epoch barriers) — so everything staged here is a
// pure function of the simulated history up to the grid point, identical
// for every lane decomposition and worker count.
void UpdateEngine::sample_timeseries() {
  const double t = ts_->next_sample_time();
  const TsColumns& c = ts_cols_;

  // Consistency state. `latest` counts trace updates published strictly
  // before t; a replica is stale (its inconsistency window open) while its
  // version trails it.
  const Version total_updates = updates_->update_count();
  while (ts_published_cursor_ < total_updates &&
         updates_->update_time(ts_published_cursor_ + 1) < t) {
    ++ts_published_cursor_;
  }
  const Version latest = ts_published_cursor_;
  ts_->stage(c.updates_published, static_cast<double>(latest));
  std::uint64_t stale = 0;
  std::array<std::uint64_t, kUpdateMethodCount> stale_by_method{};
  Version min_version = latest;
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    const Version v = versions_[i];
    min_version = std::min(min_version, v);
    if (v < latest) {
      ++stale;
      ++stale_by_method[method_index(servers_[i]->method)];
    }
  }
  ts_->stage(c.stale_replicas, static_cast<double>(stale));
  ts_->stage(c.inflight_updates, static_cast<double>(latest - min_version));
  for (std::size_t m = 0; m < kUpdateMethodCount; ++m) {
    ts_->stage(c.open_windows[m], static_cast<double>(stale_by_method[m]));
  }

  // Engine/fault/reliable activity: stage the cumulative lane-counter sums;
  // the delta columns emit per-interval differences.
  const LaneCounters lc = sum_lane_counters();
  for (std::size_t m = 0; m < kUpdateMethodCount; ++m) {
    ts_->stage(c.acquired[m], static_cast<double>(lc.acquired[m]));
    ts_->stage(c.polls[m], static_cast<double>(lc.polls[m]));
    ts_->stage(c.fetches[m], static_cast<double>(lc.fetches[m]));
    ts_->stage(c.invalidations[m], static_cast<double>(lc.invalidations[m]));
  }
  ts_->stage(c.mode_switches, static_cast<double>(lc.mode_switches));
  ts_->stage(c.visits, static_cast<double>(lc.visits));
  ts_->stage(c.visits_unanswered, static_cast<double>(lc.visits_unanswered));
  ts_->stage(c.fault_dropped, static_cast<double>(lc.fault_dropped));
  ts_->stage(c.fault_partition_dropped,
             static_cast<double>(lc.fault_partition_dropped));
  ts_->stage(c.fault_duplicated, static_cast<double>(lc.fault_duplicated));
  ts_->stage(c.fault_brownouts, static_cast<double>(lc.fault_brownouts));
  ts_->stage(c.reliable_retries, static_cast<double>(lc.reliable_retries));
  ts_->stage(c.reliable_give_ups, static_cast<double>(lc.reliable_give_ups));
  ts_->stage(c.pubsub_live, static_cast<double>(lc.pubsub.live_deliveries));
  ts_->stage(c.pubsub_suppressed,
             static_cast<double>(lc.pubsub.suppressed_deliveries));
  ts_->stage(c.pubsub_catch_up_messages,
             static_cast<double>(lc.pubsub.catch_up_messages));
  ts_->stage(c.pubsub_catch_up_reads,
             static_cast<double>(lc.pubsub.catch_up_reads));
  ts_->stage(c.pubsub_skipped_ahead,
             static_cast<double>(lc.pubsub.skipped_ahead));
  ts_->stage(c.pubsub_lagging,
             static_cast<double>(lc.pubsub.lagging_enter -
                                 lc.pubsub.lagging_exit));

  // Transport: per-kind message counts summed over the lane meters.
  std::array<std::uint64_t, net::kMessageKindCount> kinds{};
  for (const Lane& lane : lanes_) {
    const auto& kc = lane.meter.kind_counts();
    for (std::size_t k = 0; k < net::kMessageKindCount; ++k) kinds[k] += kc[k];
  }
  for (std::size_t k = 0; k < net::kMessageKindCount; ++k) {
    ts_->stage(c.messages[k], static_cast<double>(kinds[k]));
  }
  const net::Uplink& pu = shared_provider_uplink_ != nullptr
                              ? *shared_provider_uplink_
                              : provider_uplink_;
  ts_->stage(c.uplink_backlog, pu.backlog(t));
  ts_->stage(c.uplink_brownout, pu.bandwidth_scale() < 1.0 ? 1.0 : 0.0);

  ts_->take_sample();

  // Host-only shard-pipeline health rides the same cadence but never the
  // deterministic section.
  if (sharded_) {
    std::vector<std::uint64_t> lane_events;
    lane_events.reserve(lanes_.size());
    for (const Lane& lane : lanes_) {
      lane_events.push_back(lane.sim->events_processed());
    }
    ts_->shard_health_sample(t, merge_->staged_count(), ts_barrier_wait_ns_,
                             std::move(lane_events));
  }
}

void UpdateEngine::finish_timeseries() {
  if (ts_ == nullptr) return;
  for (Version v = 1; v <= updates_->update_count(); ++v) {
    ts_->span_publish(static_cast<std::uint64_t>(v), updates_->update_time(v));
  }
  for (const Lane& lane : lanes_) ts_->fold_spans(lane.spans);
  ts_->set_replica_count(servers_.size());
  ts_->set_shards(sharded_ ? static_cast<std::uint32_t>(lanes_.size()) : 0);
}

void UpdateEngine::update_shard_progress() {
  obs::ShardProgress* p = config_.shard_progress;
  if (p == nullptr) return;
  const std::size_t n =
      std::min(lanes_.size(), obs::ShardProgress::kMaxLanes);
  p->lanes.store(static_cast<std::uint32_t>(n), std::memory_order_relaxed);
  for (std::size_t i = 0; i < n; ++i) {
    p->lane_events[i].store(lanes_[i].sim->events_processed(),
                            std::memory_order_relaxed);
    p->staged_rows[i].store(merge_->incoming_count(i),
                            std::memory_order_relaxed);
  }
}

UpdateEngine::LaneCounters UpdateEngine::sum_lane_counters() const {
  LaneCounters total;
  for (const Lane& lane : lanes_) {
    const LaneCounters& c = lane.counters;
    for (std::size_t m = 0; m < kUpdateMethodCount; ++m) {
      total.acquired[m] += c.acquired[m];
      total.polls[m] += c.polls[m];
      total.fetches[m] += c.fetches[m];
      total.invalidations[m] += c.invalidations[m];
    }
    total.mode_switches += c.mode_switches;
    total.visits += c.visits;
    total.visits_unanswered += c.visits_unanswered;
    total.fault_dropped += c.fault_dropped;
    total.fault_partition_dropped += c.fault_partition_dropped;
    total.fault_duplicated += c.fault_duplicated;
    total.fault_brownouts += c.fault_brownouts;
    total.reliable_retries += c.reliable_retries;
    total.reliable_give_ups += c.reliable_give_ups;
    total.pubsub.live_deliveries += c.pubsub.live_deliveries;
    total.pubsub.suppressed_deliveries += c.pubsub.suppressed_deliveries;
    total.pubsub.catch_up_messages += c.pubsub.catch_up_messages;
    total.pubsub.catch_up_reads += c.pubsub.catch_up_reads;
    total.pubsub.skipped_ahead += c.pubsub.skipped_ahead;
    total.pubsub.lagging_enter += c.pubsub.lagging_enter;
    total.pubsub.lagging_exit += c.pubsub.lagging_exit;
  }
  return total;
}

void UpdateEngine::fold_lane_stats() {
  if (stats_folded_) return;
  stats_folded_ = true;

  const LaneCounters total = sum_lane_counters();
  for (std::size_t m = 0; m < kUpdateMethodCount; ++m) {
    const std::string suffix(to_string(static_cast<UpdateMethod>(m)));
    metrics_.counter("engine.updates_acquired." + suffix).inc(total.acquired[m]);
    metrics_.counter("engine.polls." + suffix).inc(total.polls[m]);
    metrics_.counter("engine.fetches." + suffix).inc(total.fetches[m]);
    metrics_.counter("engine.invalidations." + suffix).inc(total.invalidations[m]);
  }
  metrics_.counter("engine.mode_switches").inc(total.mode_switches);
  metrics_.counter("engine.user_visits").inc(total.visits);
  metrics_.counter("engine.user_visits_unanswered").inc(total.visits_unanswered);
  metrics_.counter("fault.messages_dropped").inc(total.fault_dropped);
  metrics_.counter("fault.partition_dropped").inc(total.fault_partition_dropped);
  metrics_.counter("fault.messages_duplicated").inc(total.fault_duplicated);
  metrics_.counter("fault.brownout_transitions").inc(total.fault_brownouts);
  metrics_.counter("reliable.retries").inc(total.reliable_retries);
  metrics_.counter("reliable.give_ups").inc(total.reliable_give_ups);
  metrics_.counter("pubsub.live_deliveries").inc(total.pubsub.live_deliveries);
  metrics_.counter("pubsub.suppressed_deliveries")
      .inc(total.pubsub.suppressed_deliveries);
  metrics_.counter("pubsub.catch_up_messages")
      .inc(total.pubsub.catch_up_messages);
  metrics_.counter("pubsub.catch_up_reads").inc(total.pubsub.catch_up_reads);
  metrics_.counter("pubsub.skipped_ahead").inc(total.pubsub.skipped_ahead);
  metrics_.counter("pubsub.lagging_enter").inc(total.pubsub.lagging_enter);
  metrics_.counter("pubsub.lagging_exit").inc(total.pubsub.lagging_exit);

  // Per-server histograms fold in ascending server order in every mode, so
  // the bucket counts and the floating-point sum are independent of lane
  // decomposition and event interleaving.
  obs::Histogram& hist =
      metrics_.histogram("engine.inconsistency_window_s", inconsistency_bounds());
  for (const auto& s : servers_) hist.merge_from(s->inconsistency);

  for (const Lane& lane : lanes_) meter_.merge_from(lane.meter);
  // Per-sender totals are accumulated wholly within one lane; rebuilding
  // the grand totals from them in sender order makes the floating-point
  // sums shard-count-invariant too.
  if (sharded_) meter_.rebuild_totals_from_senders();
}

// Folds the bulk walk's run-length records into the user tallies in one
// pass, writing the asked-for log rows on the way.
//  * Each user's walked visits merge by request time with the observations
//    buffered in that user's log during the run (pump visits, waiting users
//    served or abandoned). Blocked servers run in pump mode, so a buffered
//    and a walked observation never share a request time: the tally folds,
//    and the user rows land, in exactly the per-visit path's order.
//  * Poll rows join the rows written during the run, and a stable sort by
//    (time, server) restores the per-visit path's log: it wrote each row
//    when it happened, and its simultaneous visits fired in user-id order.
void UpdateEngine::materialize_user_logs() {
  if (!visit_plan_) return;
  const bool user_rows = config_.record_user_logs;
  const bool poll_rows = config_.record_poll_log;
  std::vector<trace::Observation> polls;
  if (poll_rows) {
    std::size_t count = poll_log_.size();
    for (const auto& s : servers_) {
      for (const auto& r : s->visit_log_runs) count += r.end - r.begin;
    }
    const std::vector<trace::Observation>& direct = poll_log_.observations();
    polls.reserve(count);
    polls.insert(polls.end(), direct.begin(), direct.end());
  }
  const std::size_t ups = static_cast<std::size_t>(config_.users_per_server);
  // Scratch reused across servers: only one server's users are live at a
  // time, so the merge's working set stays ups-sized and cache-hot.
  std::vector<std::vector<cdn::UserObservation>> buffered(ups);
  std::vector<std::size_t> cursor(ups, 0);
  for (auto& sp : servers_) {
    ServerState& s = *sp;
    const trace::VisitSchedule::PerServer& plan =
        visit_plan_->servers[static_cast<std::size_t>(s.id)];
    const std::size_t base = static_cast<std::size_t>(s.id) * ups;
    for (std::size_t k = 0; k < ups; ++k) {
      buffered[k] = user_logs_->log(static_cast<cdn::UserId>(base + k)).take();
      cursor[k] = 0;
    }
    const auto emit = [&](std::size_t k, const cdn::UserObservation& o) {
      if (o.answered) tally_answer(tallies_[base + k], o.version, o.serve_time);
      if (user_rows) user_logs_->log(static_cast<cdn::UserId>(base + k)).add(o);
    };
    cdn::UserObservation obs;
    obs.server = s.id;
    for (const auto& r : s.visit_log_runs) {
      obs.version = r.version;
      obs.answered = r.answered;
      for (std::uint32_t j = r.begin; j < r.end; ++j) {
        const sim::SimTime t = plan.times[j];
        if (poll_rows) polls.push_back({s.id, t, r.version, r.answered});
        const std::size_t k = plan.users[j] - base;
        const std::vector<cdn::UserObservation>& pts = buffered[k];
        std::size_t& pi = cursor[k];
        while (pi < pts.size() && pts[pi].request_time < t) emit(k, pts[pi++]);
        obs.request_time = obs.serve_time = t;
        emit(k, obs);
      }
    }
    for (std::size_t k = 0; k < ups; ++k) {
      for (std::size_t pi = cursor[k]; pi < buffered[k].size(); ++pi) {
        emit(k, buffered[k][pi]);
      }
    }
    s.visit_log_runs.clear();
    s.visit_log_runs.shrink_to_fit();
  }
  if (poll_rows) {
    std::stable_sort(polls.begin(), polls.end(), [](const auto& a, const auto& b) {
      return a.time != b.time ? a.time < b.time : a.server < b.server;
    });
    poll_log_ = trace::PollLog(std::move(polls));
  }
}

void UpdateEngine::publish_run_stats() {
  materialize_user_logs();
  visit_plan_.reset();  // the run is over; the logs hold all it recorded
  fold_lane_stats();

  if (!sharded_) {
    const sim::EventQueue::Stats& qs = sim_->queue_stats();
    metrics_.gauge("sim.events_scheduled").set(static_cast<double>(qs.pushes));
    metrics_.gauge("sim.events_fired")
        .set(static_cast<double>(sim_->events_processed()));
    metrics_.gauge("sim.events_cancelled")
        .set(static_cast<double>(qs.cancellations));
    metrics_.gauge("sim.queue_compactions")
        .set(static_cast<double>(qs.compactions));
    metrics_.gauge("sim.queue_peak_depth")
        .set(static_cast<double>(qs.peak_live));
    metrics_.gauge("sim.end_time_s").set(sim_->now());
  } else {
    std::uint64_t pushes = 0;
    std::uint64_t cancellations = 0;
    for (const Lane& lane : lanes_) {
      pushes += lane.sim->queue_stats().pushes;
      cancellations += lane.sim->queue_stats().cancellations;
    }
    // As in events_processed(): the per-lane horizon flush is one logical
    // event, not lane_count of them.
    pushes -= std::min<std::uint64_t>(pushes, lanes_.size() - 1);
    metrics_.gauge("sim.events_scheduled").set(static_cast<double>(pushes));
    metrics_.gauge("sim.events_fired")
        .set(static_cast<double>(events_processed()));
    metrics_.gauge("sim.events_cancelled")
        .set(static_cast<double>(cancellations));
    // Compactions and peak depth are per-queue quantities with no
    // decomposition-independent total; published as 0 so the key set stays
    // fixed while every value remains a pure function of the simulated
    // history (byte-identical across shard and worker counts).
    metrics_.gauge("sim.queue_compactions").set(0.0);
    metrics_.gauge("sim.queue_peak_depth").set(0.0);
    metrics_.gauge("sim.end_time_s").set(final_time());
  }

  const net::TrafficTotals& t = meter_.totals();
  metrics_.gauge("net.cost_km_kb").set(t.cost_km_kb);
  metrics_.gauge("net.load_km_update").set(t.load_km_update);
  metrics_.gauge("net.load_km_light").set(t.load_km_light);
  metrics_.gauge("net.messages_update")
      .set(static_cast<double>(t.update_messages));
  metrics_.gauge("net.messages_light")
      .set(static_cast<double>(t.light_messages));
  const auto& kinds = meter_.kind_counts();
  for (std::size_t k = 0; k < net::kMessageKindCount; ++k) {
    metrics_
        .gauge("net.messages." +
               std::string(to_string(static_cast<net::MessageKind>(k))))
        .set(static_cast<double>(kinds[k]));
  }

  const net::Uplink& pu = shared_provider_uplink_ != nullptr
                              ? *shared_provider_uplink_
                              : provider_uplink_;
  metrics_.gauge("net.provider_uplink.kb_sent").set(pu.total_kb_sent());
  metrics_.gauge("net.provider_uplink.reservations")
      .set(static_cast<double>(pu.reservations()));
  metrics_.gauge("net.provider_uplink.max_backlog_s").set(pu.max_backlog_s());

  metrics_.gauge("engine.failures_injected")
      .set(static_cast<double>(failures_injected_));

  // Pub/sub gauges: topic membership and the end-of-run lagging residue
  // (stranded subscribers that never confirmed the log head).
  std::uint64_t subscriptions = 0;
  for (const NodeTopics& t : topics_) {
    subscriptions += t.content.size() + t.notice.size();
  }
  metrics_.gauge("pubsub.subscriptions").set(static_cast<double>(subscriptions));
  const LaneCounters total = sum_lane_counters();
  metrics_.gauge("pubsub.lagging_subscribers")
      .set(static_cast<double>(total.pubsub.lagging_enter -
                               total.pubsub.lagging_exit));
}

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

net::Uplink& UpdateEngine::uplink_of(NodeId node) {
  if (node == kProviderNode) {
    return shared_provider_uplink_ != nullptr ? *shared_provider_uplink_
                                              : provider_uplink_;
  }
  return servers_[static_cast<std::size_t>(node)]->uplink;
}

const net::GeoPoint& UpdateEngine::location_of(NodeId node) const {
  return nodes_->location(node);
}

UpdateEngine::Hop UpdateEngine::draw_latency(NodeId from, NodeId to) {
  // Site id = node id + 1 (the provider, kProviderNode = -1, is site 0).
  const net::LinkCost link = lanes_[lane_index_of(from)].links.lookup(
      latency_, static_cast<std::uint32_t>(from + 1), location_of(from),
      static_cast<std::uint32_t>(to + 1), location_of(to));
  return {link.km, latency_.sample(link.propagation_s, nodes_->crosses_isp(from, to),
                                   rng_of(from))};
}

// Deliveries to an absent server are deferred until it returns
// (retransmission by the reliable transport); deliveries to a *crashed*
// server are lost — the node resynchronises when it rejoins.
//
// Sharded engines additionally quantize every arrival up to the first
// epoch-grid point after the send time, and route ALL messages — same-lane
// included, so lane decomposition cannot change any arrival — through the
// merge queue. The quantized arrival lands at a time no lane has reached
// when the driver injects it (events fired per round lie in one epoch cell,
// whose closing grid point is exactly this barrier).
sim::SimTime UpdateEngine::shard_barrier(sim::SimTime now) const {
  const double epoch = config_.shard.epoch_s;
  sim::SimTime barrier = (std::floor(now / epoch) + 1.0) * epoch;
  if (barrier <= now) barrier = (std::floor(now / epoch) + 2.0) * epoch;
  return barrier;
}

void UpdateEngine::deliver_at(NodeId from, NodeId to, net::MessageKind kind,
                              sim::SimTime arrival, sim::EventAction action) {
  if (to != kProviderNode) {
    const ServerState& dest = *servers_[static_cast<std::size_t>(to)];
    if (dest.absence) {
      const sim::SimTime available = dest.absence->available_from(arrival);
      if (available > arrival) arrival = available + 0.001;
    }
    action = [this, to, inner = std::move(action)]() mutable {
      if (servers_[static_cast<std::size_t>(to)]->departed) return;
      inner();
    };
  }
  if (sharded_) {
    merge_->emit(lane_index_of(from),
                 {arrival, from,
                  node_send_seq_[static_cast<std::size_t>(from + 1)]++,
                  static_cast<std::uint32_t>(lane_index_of(to)),
                  delivery_tag(kind), std::move(action)});
  } else {
    sim_->at(arrival, delivery_tag(kind), std::move(action));
  }
}

void UpdateEngine::record_injected_drop(bool partitioned, NodeId from,
                                        NodeId to) {
  LaneCounters& c = counters_of(from);
  ++(partitioned ? c.fault_partition_dropped : c.fault_dropped);
  if (config_.record_trace_events) {
    trace_.instant(partitioned ? "partition_drop" : "drop", "fault",
                   sim_of(from).now(), to);
  }
}

// The engine's only sender. Every message — lone sends, child-list and
// topic fan-outs, reliable attempts, acks and pub/sub catch-ups — leaves
// through transmit(), the one reserve -> latency-draw -> meter -> injector
// step, and arrives through deliver(), the one arrival quantization. A
// Sender hoists the per-sender lookups (clock, uplink, meter, injector and,
// sharded, the epoch barrier), so a fan-out resolves them once rather than
// per message. Sim time cannot advance during a synchronous fan-out, so the
// hoisted `now` is what each message would have read.
//
// What happens after transmit() is each caller's own: the order in which
// copies and timers are scheduled feeds event sequence numbers and the
// sharded node_send_seq_, so it is part of the byte-identical output.
struct UpdateEngine::Sender {
  /// Fate of one transmitted copy. `arrival` is the unquantized network
  /// arrival; for a dropped copy it is the nominal arrival it would have
  /// had without the fault's extra delay.
  struct Transmission {
    bool dropped = false;
    sim::SimTime arrival = 0;
    bool duplicate = false;
    sim::SimTime duplicate_arrival = 0;
  };

  UpdateEngine& e;
  const NodeId from;
  const sim::SimTime now;
  net::Uplink& uplink;
  net::TrafficMeter& meter;
  fault::Injector* const injector;
  const sim::SimTime barrier;  // unused when !e.sharded_
  /// Non-null for a lone send, which is profiled as one engine.send; a
  /// fan-out's unreliable sends are amortized into its caller's scope.
  obs::Profiler* const profiler;

  Sender(UpdateEngine& engine, NodeId sender, obs::Profiler* lone = nullptr)
      : e(engine),
        from(sender),
        now(e.sim_of(sender).now()),
        uplink(e.uplink_of(sender)),
        meter(e.meter_of(sender)),
        injector(e.injector_of(sender)),
        barrier(e.sharded_ ? e.shard_barrier(now) : 0.0),
        profiler(lone) {}

  Transmission transmit(NodeId to, net::MessageKind kind, double size_kb) {
    const sim::SimTime depart = uplink.reserve(now, size_kb);
    const Hop hop = e.draw_latency(from, to);
    meter.record(kind, from, hop.km, size_kb);
    Transmission t;
    t.arrival = depart + hop.delay_s;
    if (injector == nullptr) return t;
    const fault::Injector::Decision d = injector->decide(from, to, now);
    // A dropped message has already paid the uplink and the meter: it was
    // sent, then lost in flight.
    if (d.drop) {
      e.record_injected_drop(d.partitioned, from, to);
      t.dropped = true;
      return t;
    }
    t.arrival += d.extra_delay_s;
    t.duplicate = d.duplicate;
    t.duplicate_arrival = t.arrival + d.duplicate_extra_delay_s;
    return t;
  }

  void deliver(NodeId to, net::MessageKind kind, sim::SimTime arrival,
               sim::EventAction action) {
    if (e.sharded_ && arrival < barrier) arrival = barrier;
    e.deliver_at(from, to, kind, arrival, std::move(action));
  }

  /// Reliable kinds go through the ack/retry layer when it is enabled;
  /// everything else is sent once (send_unacked).
  void send(NodeId to, net::MessageKind kind, double size_kb,
            sim::EventAction action) {
    if (e.config_.reliable.enabled && reliable_kind(kind)) {
      e.send_reliable(from, to, kind, size_kb, std::move(action));
      return;
    }
    obs::ProfileScope scope(profiler, e.ps_send_);
    send_unacked(to, kind, size_kb, std::move(action));
  }

  /// Transmits once and schedules every arriving copy: the original, then
  /// a duplicate running the same shared action (at-least-once delivery of
  /// an unreliable network). EventAction is move-only, hence the share.
  Transmission send_unacked(NodeId to, net::MessageKind kind, double size_kb,
                            sim::EventAction action) {
    const Transmission t = transmit(to, kind, size_kb);
    if (t.dropped) return t;
    if (!t.duplicate) {
      deliver(to, kind, t.arrival, std::move(action));
      return t;
    }
    ++e.counters_of(from).fault_duplicated;
    auto shared = std::make_shared<sim::EventAction>(std::move(action));
    deliver(to, kind, t.arrival, [shared] { (*shared)(); });
    deliver(to, kind, t.duplicate_arrival, [shared] { (*shared)(); });
    return t;
  }
};

void UpdateEngine::send(NodeId from, NodeId to, net::MessageKind kind,
                        double size_kb, sim::EventAction on_delivery) {
  Sender(*this, from, event_profiler_)
      .send(to, kind, size_kb, std::move(on_delivery));
}

// ---------------------------------------------------------------------------
// Reliable delivery
// ---------------------------------------------------------------------------

void UpdateEngine::send_reliable(NodeId from, NodeId to, net::MessageKind kind,
                                 double size_kb, sim::EventAction on_delivery) {
  auto st = std::make_shared<ReliableState>();
  st->from = from;
  st->to = to;
  st->kind = kind;
  st->size_kb = size_kb;
  st->action = std::move(on_delivery);
  reliable_attempt(st, 0);
}

void UpdateEngine::reliable_attempt(const std::shared_ptr<ReliableState>& st,
                                    int attempt) {
  obs::ProfileScope scope(event_profiler_, ps_send_);
  Sender sender(*this, st->from);
  const Sender::Transmission t = sender.transmit(st->to, st->kind, st->size_kb);
  if (!t.dropped) {
    // Both copies deliver through reliable_deliver, whose delivered flag
    // runs the action once; the duplicate is scheduled first.
    if (t.duplicate) {
      ++counters_of(st->from).fault_duplicated;
      sender.deliver(st->to, st->kind, t.duplicate_arrival,
                     [this, st] { reliable_deliver(st); });
    }
    sender.deliver(st->to, st->kind, t.arrival,
                   [this, st] { reliable_deliver(st); });
  }

  // Arm the retransmission deadline regardless of the fate of this copy —
  // the sender cannot know the message was lost, only that no ack came back.
  const sim::SimTime deadline =
      config_.reliable.ack_timeout_s *
      std::pow(config_.reliable.backoff_factor, attempt);
  sim_of(st->from).at(sender.now + deadline, kTagRetry, [this, st, attempt] {
    if (st->acked) return;
    // A crashed sender retransmits nothing; churn resync covers its state.
    if (st->from != kProviderNode &&
        servers_[static_cast<std::size_t>(st->from)]->departed) {
      return;
    }
    if (attempt >= config_.reliable.max_retries) {
      ++counters_of(st->from).reliable_give_ups;
      if (config_.record_trace_events) {
        trace_.instant("give_up", "fault", sim_of(st->from).now(), st->to);
      }
      // A flow-controlled pub/sub transmission settles as lost: its credit
      // frees and the subscriber re-tails the log (unless a late ack
      // already settled it).
      if (st->pubsub.has_value() && !st->pubsub->settled) {
        st->pubsub->settled = true;
        pubsub_settle(st->from, st->pubsub->channel, st->pubsub->subscriber,
                      st->pubsub->version, /*ok=*/false, st->pubsub->catch_up,
                      st->pubsub->generation);
      }
      return;
    }
    ++counters_of(st->from).reliable_retries;
    reliable_attempt(st, attempt + 1);
  });
}

void UpdateEngine::reliable_deliver(const std::shared_ptr<ReliableState>& st) {
  if (!st->delivered) {
    st->delivered = true;
    st->action();
  }
  // Every delivered copy acks (retransmissions included): a lost ack causes
  // a spurious retransmission, which the delivered flag absorbs.
  send_ack(st);
}

void UpdateEngine::send_ack(const std::shared_ptr<ReliableState>& st) {
  obs::ProfileScope scope(event_profiler_, ps_send_);
  // The ack travels to -> from; st->to is the sender here.
  Sender sender(*this, st->to);
  const Sender::Transmission t =
      sender.transmit(st->from, net::MessageKind::kAck, config_.light_packet_kb);
  if (t.dropped) return;
  // A duplicated ack is indistinguishable from one: setting `acked` twice
  // is harmless, so the duplicate is neither scheduled nor counted.
  sender.deliver(st->from, net::MessageKind::kAck, t.arrival,
                 [this, st] { on_ack(st); });
}

// ---------------------------------------------------------------------------
// Fault schedule (brownouts)
// ---------------------------------------------------------------------------

void UpdateEngine::schedule_brownouts() {
  if (injector_ == nullptr) return;
  for (const fault::Brownout& b : injector_->plan().brownouts) {
    sim_of(b.node).at(b.start, kTagFault, [this, b] {
      uplink_of(b.node).set_bandwidth_scale(b.bandwidth_factor);
      ++counters_of(b.node).fault_brownouts;
      if (config_.record_trace_events) {
        trace_.instant("brownout_start", "fault", sim_of(b.node).now(), b.node);
      }
    });
    sim_of(b.node).at(b.end, kTagFault, [this, b] {
      uplink_of(b.node).set_bandwidth_scale(1.0);
      ++counters_of(b.node).fault_brownouts;
      if (config_.record_trace_events) {
        trace_.instant("brownout_end", "fault", sim_of(b.node).now(), b.node);
      }
    });
  }
}

// ---------------------------------------------------------------------------
// Version bookkeeping and propagation
// ---------------------------------------------------------------------------

Version UpdateEngine::node_version(NodeId node) {
  if (node == kProviderNode) {
    return provider_->true_version_at(sim_of(kProviderNode).now());
  }
  return version_of(node);
}

// Partition every node's children once by delivery role, preserving
// children_of order inside each list. notify_children interleaves plain
// invalidation children with subscription-gated adaptive ones in that
// order, so a single `notice` list (with a gated flag) keeps the send —
// and therefore uplink/RNG — sequence byte-identical to the old dynamic
// method_of dispatch.
void UpdateEngine::rebuild_child_lists() {
  child_lists_.assign(servers_.size() + 1, {});
  for (NodeId node = kProviderNode; node < static_cast<NodeId>(servers_.size());
       ++node) {
    ChildLists& lists = child_lists_[static_cast<std::size_t>(node + 1)];
    for (NodeId c : infra_.children_of(node)) {
      switch (infra_.method_of(c)) {
        case UpdateMethod::kPush:
          lists.push.push_back(c);
          break;
        case UpdateMethod::kInvalidation:
          lists.notice.push_back({c, /*gated=*/false});
          break;
        case UpdateMethod::kSelfAdaptive:
        case UpdateMethod::kRateAdaptive:
          lists.notice.push_back({c, /*gated=*/true});
          break;
        default:
          break;  // TTL-family children pull; nothing to deliver
      }
    }
  }
  rebuild_topics();
}

void UpdateEngine::acquire_version(ServerState& s, Version v) {
  if (v <= version_of(s.id)) return;
  obs::ProfileScope scope(event_profiler_, ps_version_);
  // Pending visits observed the pre-update content; flush them before the
  // version moves (no-op while the server pumps per-visit events).
  catch_up_visits(s);
  const sim::SimTime now = sim_of(s.id).now();
  version_of(s.id) = v;
  s.recorder.on_version(v, now);
  s.last_known_update_time = updates_->update_time(v);
  ++counters_of(s.id).acquired[method_index(s.method)];
  // The inconsistency window for version v at this replica: origin update
  // time to local acquisition (sim time on both ends — deterministic).
  s.inconsistency.observe(now - s.last_known_update_time);
  if (ts_ != nullptr) {
    // Propagation span: the same publish->apply latency, recorded into the
    // owning lane's buffer (single-writer) and rolled up at report time.
    lanes_[lane_index_of(s.id)].spans.record(
        static_cast<std::uint64_t>(v), now - s.last_known_update_time);
  }
  if (config_.record_trace_events) {
    trace_.complete("v" + std::to_string(v),
                    std::string(to_string(s.method)),
                    s.last_known_update_time, now, s.id);
  }
  propagate_to_children(s.id, v);
  resync_visits(s);
}

/// Sends invalidation notices for version v to this parent's
/// notice-receiving children (plain Invalidation children always; subscribed
/// self-adaptive children once per subscription).
void UpdateEngine::notify_children(NodeId node, Version v) {
  obs::ProfileScope scope(event_profiler_, ps_invalidate_);
  if (pubsub_active_) {
    pubsub_publish(node, PubsubChannel::kNotice, v);
    return;
  }
  const ChildLists& lists = child_lists_[static_cast<std::size_t>(node + 1)];
  if (lists.notice.empty()) return;
  SubscriptionState& subs = subs_of(node);
  Sender sender(*this, node);
  for (const ChildLists::Notice& n : lists.notice) {
    if (n.gated) {
      if (subs.subscribers.count(n.child) == 0 ||
          subs.notified.count(n.child) != 0) {
        continue;
      }
      subs.notified.insert(n.child);
    }
    sender.send(n.child, net::MessageKind::kInvalidation,
                config_.light_packet_kb,
                delivery_action(PubsubChannel::kNotice, n.child, v));
  }
}

void UpdateEngine::propagate_to_children(NodeId node, Version v) {
  obs::ProfileScope scope(event_profiler_, ps_push_);
  if (pubsub_active_) {
    pubsub_publish(node, PubsubChannel::kContent, v);
    notify_children(node, v);
    return;
  }
  const ChildLists& lists = child_lists_[static_cast<std::size_t>(node + 1)];
  if (!lists.push.empty()) {
    Sender sender(*this, node);
    for (NodeId c : lists.push) {
      sender.send(c, net::MessageKind::kPushUpdate, config_.update_packet_kb,
                  delivery_action(PubsubChannel::kContent, c, v));
    }
  }
  notify_children(node, v);
}

sim::EventAction UpdateEngine::delivery_action(PubsubChannel ch, NodeId to,
                                               Version v) {
  ServerState& child = *servers_[static_cast<std::size_t>(to)];
  if (ch == PubsubChannel::kContent) {
    return [this, &child, v] { acquire_version(child, v); };
  }
  return [this, &child, v] { on_invalidation(child, v); };
}

// ---------------------------------------------------------------------------
// Pub/sub fan-out (multicast/hybrid delivery path)
// ---------------------------------------------------------------------------

// One topic walk per (relay, channel) publish. With flow control off the
// walk replays the legacy child-list loops bit for bit — same subscriber
// order (topics mirror child_lists_), same per-child sends, no extra
// draws — which is what keeps multicast/hybrid golden runs byte-identical
// to the pre-pub/sub engine. With flow control on, each transmission holds
// one of the subscriber's credits and is settled by an ack (reliable mode)
// or by the sender's own arrival estimate (unreliable mode); subscribers
// out of credits are suppressed and later tail the missed versions from
// the topic log.
void UpdateEngine::pubsub_publish(NodeId node, PubsubChannel ch, Version v) {
  pubsub::Topic& topic = topic_of(node, ch);
  if (topic.empty()) return;
  const bool content = ch == PubsubChannel::kContent;
  const net::MessageKind kind = content ? net::MessageKind::kPushUpdate
                                        : net::MessageKind::kInvalidation;
  const double size_kb =
      content ? config_.update_packet_kb : config_.light_packet_kb;
  SubscriptionState* subs = content ? nullptr : &subs_of(node);
  auto allowed = [&](const pubsub::Subscriber& s) {
    if (!s.gated) return true;
    if (subs->subscribers.count(s.node) == 0 ||
        subs->notified.count(s.node) != 0) {
      return false;
    }
    subs->notified.insert(s.node);
    return true;
  };
  pubsub::Fanout fanout(topic, &flow_, counters_of(node).pubsub);
  Sender sender(*this, node);
  fanout.publish(static_cast<pubsub::SequenceNumber>(v), sender.now, allowed,
                 [&](pubsub::SubscriberId sid, pubsub::Subscriber& sub) {
                   if (flow_.enabled()) {
                     pubsub_transmit(sender, ch, sid, v, /*catch_up=*/false);
                     return;
                   }
                   sender.send(sub.node, kind, size_kb,
                               delivery_action(ch, sub.node, v));
                 });
}

// Flow-controlled transport of one delivery (live or catch-up). The
// subscriber's credit was taken by the walker; this function only moves the
// bytes and arranges the settle that will release it.
void UpdateEngine::pubsub_transmit(Sender& sender, PubsubChannel ch,
                                   pubsub::SubscriberId sid, Version v,
                                   bool catch_up) {
  const NodeId relay = sender.from;
  const NodeId to = topic_of(relay, ch).at(sid).node;
  net::MessageKind kind;
  double size_kb;
  if (ch == PubsubChannel::kContent) {
    kind = catch_up ? net::MessageKind::kCatchUpUpdate
                    : net::MessageKind::kPushUpdate;
    size_kb = config_.update_packet_kb;
  } else {
    kind = catch_up ? net::MessageKind::kCatchUpNotice
                    : net::MessageKind::kInvalidation;
    size_kb = config_.light_packet_kb;
  }
  if (config_.reliable.enabled) {
    auto st = std::make_shared<ReliableState>();
    st->from = relay;
    st->to = to;
    st->kind = kind;
    st->size_kb = size_kb;
    st->action = delivery_action(ch, to, v);
    st->pubsub = ReliableState::PubsubRef{ch,       sid,
                                          v,        catch_up,
                                          pubsub_generation_, false};
    reliable_attempt(st, 0);
    return;
  }
  // Unreliable transport: nothing confirms receipt, so the sender settles
  // the credit at the nominal arrival instant of its own transmission (an
  // optimistic transport-level estimate); a copy lost to the injector
  // settles as lost at the same instant. The settle event is sender-local
  // bookkeeping, so it needs no barrier quantization under sharding.
  const Sender::Transmission t =
      sender.send_unacked(to, kind, size_kb, delivery_action(ch, to, v));
  const bool ok = !t.dropped;
  const std::uint64_t gen = pubsub_generation_;
  sim_of(relay).at(t.arrival, kTagPubsubSettle,
                   [this, relay, ch, sid, v, ok, catch_up, gen] {
                     pubsub_settle(relay, ch, sid, v, ok, catch_up, gen);
                   });
}

void UpdateEngine::pubsub_settle(NodeId relay, PubsubChannel ch,
                                 pubsub::SubscriberId sid, Version v, bool ok,
                                 bool catch_up, std::uint64_t generation) {
  if (generation != pubsub_generation_) return;  // topology was rebuilt
  pubsub::Topic& topic = topic_of(relay, ch);
  pubsub::Fanout fanout(topic, &flow_, counters_of(relay).pubsub);
  if (fanout.settle(sid, static_cast<pubsub::SequenceNumber>(v), ok,
                    catch_up)) {
    pubsub_send_tail(relay, ch, sid);
    return;
  }
  if (ok) return;
  // The transmission was lost and the subscriber still trails the log.
  // Reliable transports spaced this loss out by their whole retry budget,
  // so they may re-tail immediately; unreliable ones re-arm on a timer —
  // an immediate re-tail would retry as fast as the link round-trips.
  // Past the horizon only the loss of a reliable live transmission still
  // re-tails: its give-up may land long after the last publish, and
  // dropping it would strand the subscriber as lagging for good. A lost
  // catch-up stops there, so post-horizon work is bounded by one re-tail
  // per lost live send and dead links still terminate.
  const bool past_horizon = sim_of(relay).now() >= end_time_;
  if (config_.reliable.enabled) {
    if (past_horizon && catch_up) return;
    if (fanout.begin_catch_up(sid)) pubsub_send_tail(relay, ch, sid);
    return;
  }
  if (past_horizon) return;
  const std::uint64_t gen = pubsub_generation_;
  sim_of(relay).at(sim_of(relay).now() + config_.pubsub.catchup_retry_s,
                   kTagPubsubSettle, [this, relay, ch, sid, gen] {
                     pubsub_retry_catch_up(relay, ch, sid, gen);
                   });
}

void UpdateEngine::pubsub_retry_catch_up(NodeId relay, PubsubChannel ch,
                                         pubsub::SubscriberId sid,
                                         std::uint64_t generation) {
  if (generation != pubsub_generation_) return;
  if (sim_of(relay).now() >= end_time_) return;
  if (relay != kProviderNode &&
      servers_[static_cast<std::size_t>(relay)]->departed) {
    return;
  }
  pubsub::Topic& topic = topic_of(relay, ch);
  pubsub::Fanout fanout(topic, &flow_, counters_of(relay).pubsub);
  if (fanout.begin_catch_up(sid)) pubsub_send_tail(relay, ch, sid);
}

void UpdateEngine::pubsub_send_tail(NodeId relay, PubsubChannel ch,
                                    pubsub::SubscriberId sid) {
  const pubsub::Topic& topic = topic_of(relay, ch);
  const auto head = static_cast<Version>(topic.log().last_seq());
  Sender sender(*this, relay);
  pubsub_transmit(sender, ch, sid, head, /*catch_up=*/true);
}

void UpdateEngine::on_ack(const std::shared_ptr<ReliableState>& st) {
  st->acked = true;
  if (st->pubsub.has_value() && !st->pubsub->settled) {
    st->pubsub->settled = true;
    pubsub_settle(st->from, st->pubsub->channel, st->pubsub->subscriber,
                  st->pubsub->version, /*ok=*/true, st->pubsub->catch_up,
                  st->pubsub->generation);
  }
}

void UpdateEngine::rebuild_topics() {
  pubsub_active_ =
      config_.infrastructure.kind != InfrastructureKind::kUnicast;
  if (!pubsub_active_) return;
  // In-flight confirmations refer to the ids of the topics being replaced;
  // bumping the generation drops them instead of misattributing credits.
  ++pubsub_generation_;
  topics_.assign(servers_.size() + 1, NodeTopics(config_.pubsub.log_capacity));
  for (NodeId node = kProviderNode;
       node < static_cast<NodeId>(servers_.size()); ++node) {
    const ChildLists& lists = child_lists_[static_cast<std::size_t>(node + 1)];
    NodeTopics& t = topics_[static_cast<std::size_t>(node + 1)];
    for (NodeId c : lists.push) t.content.add(c, /*gated=*/false);
    for (const ChildLists::Notice& n : lists.notice) {
      t.notice.add(n.child, n.gated);
    }
  }
}

void UpdateEngine::meter_subscriptions() {
  if (!pubsub_active_ || !flow_.enabled()) return;
  // Registration is control traffic from subscriber to relay, metered like
  // tree maintenance (no uplink or latency modeled — subscriptions are
  // established before the run starts). Runs once from prepare_events, on
  // the driver thread, so the cross-lane meter writes are safe.
  for (NodeId node = kProviderNode;
       node < static_cast<NodeId>(servers_.size()); ++node) {
    const NodeTopics& t = topics_[static_cast<std::size_t>(node + 1)];
    const auto register_subs = [&](const pubsub::Topic& topic) {
      for (const pubsub::Subscriber& s : topic.subscribers()) {
        meter_of(s.node).record(net::MessageKind::kSubscribe, s.node,
                                nodes_->distance_km(s.node, node),
                                config_.light_packet_kb);
      }
    };
    register_subs(t.content);
    register_subs(t.notice);
  }
}

void UpdateEngine::on_provider_update(Version v) {
  propagate_to_children(kProviderNode, v);
}

// ---------------------------------------------------------------------------
// Parent-side request handling
// ---------------------------------------------------------------------------

void UpdateEngine::handle_poll_at_parent(NodeId parent, NodeId child,
                                         Version child_version_sent) {
  obs::ProfileScope scope(event_profiler_, ps_poll_);
  ServerState& child_state = *servers_[static_cast<std::size_t>(child)];
  // Classic engines compare against the child's live version (an
  // idealization — the request does not carry it — that the golden pins
  // depend on). Sharded engines use the version the request was sent with:
  // the child's state may move concurrently on another lane.
  const Version child_version =
      sharded_ ? child_version_sent : version_of(child_state.id);
  Version v;
  if (parent == kProviderNode) {
    // Origin staleness (Section 3.4.2) is visible to pollers.
    v = provider_->served_version_at(sim_of(parent).now());
  } else {
    v = version_of(parent);
  }
  const bool fresh = v > child_version;
  const net::MessageKind kind = fresh ? net::MessageKind::kPollResponseFresh
                                      : net::MessageKind::kPollResponseNoop;
  const double size = fresh ? config_.update_packet_kb : config_.light_packet_kb;
  send(parent, child, kind, size,
       [this, &child_state, v, fresh] { on_poll_response(child_state, v, fresh); });
}

void UpdateEngine::handle_fetch_at_parent(NodeId parent, NodeId child) {
  obs::ProfileScope scope(event_profiler_, ps_fetch_);
  SubscriptionState& subs = subs_of(parent);
  if (infra_.method_of(child) == UpdateMethod::kRateAdaptive) {
    // Rate-adaptive children stay subscribed across fetches; clearing the
    // notified flag re-arms the aggregated notice for the next update.
    subs.notified.erase(child);
  } else {
    // A fetch request from a self-adaptive child carries its switch-back
    // notice: unsubscribe it.
    subs.subscribers.erase(child);
    subs.notified.erase(child);
  }

  if (parent != kProviderNode) {
    ServerState& p = *servers_[static_cast<std::size_t>(parent)];
    if (p.invalidation_active() && p.invalid_known > version_of(p.id)) {
      // Parent is itself invalid: fetch upward first, answer the child when
      // content arrives (recursive invalidation in a multicast tree).
      p.pending_child_fetches.push_back(child);
      if (!p.fetch_in_flight) begin_fetch(p);
      return;
    }
  }
  answer_fetch(parent, child);
}

void UpdateEngine::answer_fetch(NodeId parent, NodeId child) {
  obs::ProfileScope scope(event_profiler_, ps_fetch_);
  const Version v = node_version(parent);
  ServerState& child_state = *servers_[static_cast<std::size_t>(child)];
  send(parent, child, net::MessageKind::kFetchResponse, config_.update_packet_kb,
       [this, &child_state, v] { on_fetch_response(child_state, v); });
}

// ---------------------------------------------------------------------------
// Server-side behaviour
// ---------------------------------------------------------------------------

sim::SimTime UpdateEngine::current_ttl(const ServerState& s) const {
  if (s.method == UpdateMethod::kAdaptiveTtl) {
    const double age =
        std::max(0.0, sim_of(s.id).now() - s.last_known_update_time);
    return std::clamp(config_.method.adaptive_factor * age,
                      config_.method.adaptive_min_ttl_s,
                      config_.method.adaptive_max_ttl_s);
  }
  return config_.method.server_ttl_s;
}

void UpdateEngine::start_server(ServerState& s) {
  if (!uses_polling(s.method)) return;
  ServerState* sp = &s;
  s.poll_timer = std::make_unique<sim::PeriodicTimer>(
      sim_of(s.id), config_.method.server_ttl_s, [this, sp] { poll_tick(*sp); },
      kTagPollTick);
  s.poll_timer->attach_profiler(event_profiler_, ps_timer_);
  // Servers start with uniformly random phase in [0, TTL) — the paper's
  // assumption behind E[I] = TTL/2 (Section 3.4.1). Prepare-phase draw:
  // always from the engine RNG, so the stream prefix is shard-invariant.
  s.poll_timer->start_after(rng_.uniform(0.0, config_.method.server_ttl_s));
  if (s.method == UpdateMethod::kRateAdaptive) {
    s.adapt_timer = std::make_unique<sim::PeriodicTimer>(
        sim_of(s.id), config_.method.rate_window_s,
        [this, sp] { rate_adapt_tick(*sp); }, kTagAdaptTick);
    s.adapt_timer->attach_profiler(event_profiler_, ps_timer_);
    s.adapt_timer->start();
  }
}

/// Rate-adaptive controller (Section 6 future work): once per window,
/// compare the replica's visits to the updates it observed and pick the
/// cheaper mode — TTL polling when visitors keep pace with updates,
/// invalidation subscription otherwise.
void UpdateEngine::rate_adapt_tick(ServerState& s) {
  if (sim_of(s.id).now() >= end_time_) {
    s.adapt_timer->stop();
    return;
  }
  // The controller reads visits_in_window: count the backlog first.
  catch_up_visits(s);
  const auto updates = static_cast<double>(
      std::max<Version>(version_of(s.id), s.invalid_known) -
      s.version_at_window_start);
  const auto visits = static_cast<double>(s.visits_in_window);
  s.version_at_window_start = std::max<Version>(version_of(s.id), s.invalid_known);
  s.visits_in_window = 0;
  if (s.departed) return;

  const bool want_ttl =
      updates > 0 && visits >= config_.method.rate_hysteresis * updates;
  if (want_ttl && s.sa_in_invalidation_mode) {
    switch_to_ttl_mode(s);
  } else if (!want_ttl && !s.sa_in_invalidation_mode) {
    switch_to_invalidation_mode(s);
  }
}

/// Leaves invalidation mode: notifies the parent (unsubscribe), resumes the
/// poll timer, and repairs any known staleness immediately.
void UpdateEngine::switch_to_ttl_mode(ServerState& s) {
  obs::ProfileScope scope(event_profiler_, ps_mode_switch_);
  catch_up_visits(s);
  s.sa_in_invalidation_mode = false;
  ++counters_of(s.id).mode_switches;
  if (config_.record_trace_events) {
    trace_.instant("switch_to_ttl", std::string(to_string(s.method)),
                   sim_of(s.id).now(), s.id);
  }
  const NodeId parent = infra_.parent_of(s.id);
  const NodeId self = s.id;
  send(self, parent, net::MessageKind::kSwitchNotice, config_.light_packet_kb,
       [this, parent, self] {
         SubscriptionState& subs = subs_of(parent);
         subs.subscribers.erase(self);
         subs.notified.erase(self);
       });
  if (s.poll_timer) s.poll_timer->start_after(rng_of(s.id).uniform(
      0.0, config_.method.server_ttl_s));
  if (s.invalid_known > version_of(s.id) && !s.fetch_in_flight) begin_fetch(s);
  resync_visits(s);
}

void UpdateEngine::poll_tick(ServerState& s) {
  obs::ProfileScope scope(event_profiler_, ps_poll_);
  if (sim_of(s.id).now() >= end_time_) {
    s.poll_timer->stop();
    return;
  }
  if (s.method == UpdateMethod::kAdaptiveTtl) {
    s.poll_timer->set_period(current_ttl(s));
  }
  if (s.departed) return;                      // crashed: no activity at all
  if (s.absent_at(sim_of(s.id).now())) return;  // overloaded: poll skipped
  ++counters_of(s.id).polls[method_index(s.method)];
  const NodeId parent = infra_.parent_of(s.id);
  const NodeId self = s.id;
  const Version vsent = version_of(s.id);
  send(self, parent, net::MessageKind::kPollRequest, config_.light_packet_kb,
       [this, parent, self, vsent] {
         handle_poll_at_parent(parent, self, vsent);
       });
}

void UpdateEngine::on_poll_response(ServerState& s, Version v, bool fresh) {
  obs::ProfileScope scope(event_profiler_, ps_poll_);
  if (fresh) {
    acquire_version(s, v);
    return;
  }
  // No update during a whole TTL: Algorithm 1 switches to Invalidation.
  if (s.method == UpdateMethod::kSelfAdaptive && !s.sa_in_invalidation_mode) {
    switch_to_invalidation_mode(s);
  }
}

void UpdateEngine::switch_to_invalidation_mode(ServerState& s) {
  obs::ProfileScope scope(event_profiler_, ps_mode_switch_);
  catch_up_visits(s);
  s.sa_in_invalidation_mode = true;
  ++counters_of(s.id).mode_switches;
  if (config_.record_trace_events) {
    trace_.instant("switch_to_invalidation", std::string(to_string(s.method)),
                   sim_of(s.id).now(), s.id);
  }
  if (s.poll_timer) s.poll_timer->stop();
  const NodeId parent = infra_.parent_of(s.id);
  const NodeId self = s.id;
  const Version vsent = version_of(s.id);
  send(self, parent, net::MessageKind::kSwitchNotice, config_.light_packet_kb,
       [this, parent, self, vsent] {
         SubscriptionState& subs = subs_of(parent);
         subs.subscribers.insert(self);
         subs.notified.erase(self);
         // If the parent is already ahead of the child, the child missed an
         // update that happened during its last TTL window; notify at once
         // so the next visit repairs it. Classic engines compare the
         // child's live version (the old idealization the golden pins
         // depend on); sharded ones use the version the notice carried.
         ServerState& child = *servers_[static_cast<std::size_t>(self)];
         const Version child_version = sharded_ ? vsent : version_of(self);
         const Version pv = node_version(parent);
         if (pv > child_version) {
           subs.notified.insert(self);
           send(parent, self, net::MessageKind::kInvalidation,
                config_.light_packet_kb,
                [this, &child, pv] { on_invalidation(child, pv); });
         }
       });
  resync_visits(s);
}

void UpdateEngine::on_invalidation(ServerState& s, Version v) {
  obs::ProfileScope scope(event_profiler_, ps_invalidate_);
  // Visits before this notice saw valid content: flush them before the
  // server turns blocked.
  catch_up_visits(s);
  ++counters_of(s.id).invalidations[method_index(s.method)];
  s.invalid_known = std::max(s.invalid_known, v);
  // Invalidation notices flood down to notice-receiving children (multicast
  // invalidation propagates the notice immediately, content on demand).
  notify_children(s.id, v);
  resync_visits(s);
}

void UpdateEngine::begin_fetch(ServerState& s) {
  obs::ProfileScope scope(event_profiler_, ps_fetch_);
  CDNSIM_EXPECTS(!s.fetch_in_flight, "fetch already in flight");
  s.fetch_in_flight = true;
  ++counters_of(s.id).fetches[method_index(s.method)];
  issue_fetch_request(s);
  // Fetch is a request/response RPC: the requester guards the whole exchange
  // (a lost kFetchRequest has no sender-side ack to trigger retransmission).
  if (config_.reliable.enabled) arm_fetch_guard(s, 0);
}

void UpdateEngine::issue_fetch_request(ServerState& s) {
  const NodeId parent = infra_.parent_of(s.id);
  const NodeId self = s.id;
  send(self, parent, net::MessageKind::kFetchRequest, config_.light_packet_kb,
       [this, parent, self] { handle_fetch_at_parent(parent, self); });
}

void UpdateEngine::arm_fetch_guard(ServerState& s, int attempt) {
  ++s.fetch_epoch;
  const std::uint64_t epoch = s.fetch_epoch;
  // 2x the one-way ack timeout: the guard covers a round trip plus the
  // response transmission.
  const sim::SimTime deadline =
      2.0 * config_.reliable.ack_timeout_s *
      std::pow(config_.reliable.backoff_factor, attempt);
  ServerState* sp = &s;
  sim_of(s.id).at(sim_of(s.id).now() + deadline, kTagRetry,
                  [this, sp, epoch, attempt] {
    ServerState& srv = *sp;
    if (srv.fetch_epoch != epoch || !srv.fetch_in_flight || srv.departed) {
      return;
    }
    if (attempt >= config_.reliable.max_retries) {
      give_up_fetch(srv);
      return;
    }
    ++counters_of(srv.id).reliable_retries;
    issue_fetch_request(srv);
    arm_fetch_guard(srv, attempt + 1);
  });
}

void UpdateEngine::give_up_fetch(ServerState& s) {
  ++counters_of(s.id).reliable_give_ups;
  const sim::SimTime now = sim_of(s.id).now();
  if (config_.record_trace_events) {
    trace_.instant("give_up", "fault", now, s.id);
  }
  s.fetch_in_flight = false;
  // Users caught waiting on the abandoned fetch see a failed request, the
  // same observable outcome as a server crash mid-fetch. (No visit hooks:
  // the server stays blocked — invalid_known still ahead — so the pump
  // keeps firing, and the next pump visit re-triggers the fetch.)
  fail_waiting_users(s);
}

void UpdateEngine::fail_waiting_users(ServerState& s) {
  for (const auto& w : s.waiting_users) {
    record_observation(s, *w.user, w.request_time, w.redirected, false);
  }
  s.waiting_users.clear();
  s.pending_child_fetches.clear();
}

void UpdateEngine::on_fetch_response(ServerState& s, Version v) {
  obs::ProfileScope scope(event_profiler_, ps_fetch_);
  s.fetch_in_flight = false;
  acquire_version(s, v);
  if (s.invalidation_active() && s.invalid_known > version_of(s.id)) {
    // A newer invalidation raced past our fetch; fetch again.
    begin_fetch(s);
    return;
  }
  // Self-adaptive: first visited fetch after an invalidation switches the
  // method back to TTL (the fetch request carried the switch notice).
  if (s.method == UpdateMethod::kSelfAdaptive && s.sa_in_invalidation_mode) {
    s.sa_in_invalidation_mode = false;
    if (s.poll_timer) s.poll_timer->start_after(config_.method.server_ttl_s);
  }
  // Serve users that were waiting on this fetch.
  for (const auto& w : s.waiting_users) {
    record_observation(s, *w.user, w.request_time, w.redirected, true);
  }
  s.waiting_users.clear();
  // Answer children whose fetches were queued behind ours.
  auto pending = std::move(s.pending_child_fetches);
  s.pending_child_fetches.clear();
  for (NodeId c : pending) answer_fetch(s.id, c);
  // acquire_version resynced already; the mode switch-back above cannot
  // change blockedness (it only happens with no staleness left), so this is
  // a harmless safety net.
  resync_visits(s);
}

// ---------------------------------------------------------------------------
// Churn
// ---------------------------------------------------------------------------

void UpdateEngine::schedule_next_failure() {
  if (config_.churn.failures_per_hour <= 0) return;
  const sim::SimTime gap =
      rng_.exponential(3600.0 / config_.churn.failures_per_hour);
  const sim::SimTime when = sim_->now() + gap;
  if (when >= end_time_) return;
  sim_->at(when, kTagChurn, [this] {
    // Pick a random live server; skip the round if everything is down.
    std::vector<ServerState*> live;
    for (auto& s : servers_) {
      if (!s->departed) live.push_back(s.get());
    }
    if (!live.empty()) fail_node(*live[rng_.index(live.size())]);
    schedule_next_failure();
  });
}

void UpdateEngine::fail_node(ServerState& s) {
  CDNSIM_EXPECTS(!s.departed, "server already failed");
  // Visits before the crash saw the live server.
  catch_up_visits(s);
  ++failures_injected_;
  s.departed = true;
  if (config_.record_trace_events) {
    trace_.instant("fail", "churn", sim_->now(), s.id);
  }
  if (s.poll_timer) s.poll_timer->stop();
  fail_waiting_users(s);
  s.fetch_in_flight = false;

  if (config_.churn.repair_enabled) {
    const RepairReport report = infra_.fail_server(s.id, rng_);
    apply_repair(report);
  }
  // Schedule the node's return.
  const sim::SimTime downtime =
      std::max(1.0, rng_.exponential(config_.churn.downtime_mean_s));
  ServerState* sp = &s;
  sim_->at(sim_->now() + downtime, kTagChurn, [this, sp] { restore_node(*sp); });
  resync_visits(s);
}

void UpdateEngine::restore_node(ServerState& s) {
  // Visits during the outage were unanswered; count them before the flip.
  catch_up_visits(s);
  s.departed = false;
  if (config_.record_trace_events) {
    trace_.instant("restore", "churn", sim_->now(), s.id);
  }
  if (config_.churn.repair_enabled) {
    const RepairReport report = infra_.restore_server(s.id, rng_);
    apply_repair(report);
  }
  s.method = infra_.method_of(s.id);
  s.sa_in_invalidation_mode = false;
  s.fetch_in_flight = false;
  ensure_polling(s);
  // Anti-entropy on rejoin: fetch the current content from the parent so
  // push-based subtrees do not stay permanently behind.
  begin_fetch(s);
  resync_visits(s);
}

void UpdateEngine::apply_repair(const RepairReport& report) {
  obs::ProfileScope scope(event_profiler_, ps_repair_);
  // Every caller just mutated infra_ (fail/restore re-parenting, method
  // flips, supernode promotion), so the flattened fan-out lists are stale.
  rebuild_child_lists();
  for (const RepairEdge& edge : report.new_edges) {
    meter_of(edge.child).record(net::MessageKind::kTreeMaintenance, edge.child,
                                nodes_->distance_km(edge.child, edge.new_parent),
                                config_.light_packet_kb);
    ServerState& child = *servers_[static_cast<std::size_t>(edge.child)];
    // Re-parenting can change the child's method (and with it blockedness).
    catch_up_visits(child);
    child.method = infra_.method_of(child.id);
    // A fetch aimed at the failed parent would never complete: re-issue it
    // toward the new parent.
    if (child.fetch_in_flight) {
      child.fetch_in_flight = false;
      begin_fetch(child);
    }
    // Self-adaptive children in invalidation mode re-subscribe at the new
    // parent (their old subscription died with the failed node).
    if (child.method == UpdateMethod::kSelfAdaptive &&
        child.sa_in_invalidation_mode) {
      SubscriptionState& subs = subs_of(edge.new_parent);
      subs.subscribers.insert(child.id);
      subs.notified.erase(child.id);
    }
    // Push children may have lost updates between crash and repair: the new
    // parent brings them up to date.
    if (child.method == UpdateMethod::kPush && !child.departed) {
      const Version v = node_version(edge.new_parent);
      if (v > version_of(child.id)) {
        ServerState* cp = &child;
        send(edge.new_parent, child.id, net::MessageKind::kPushUpdate,
             config_.update_packet_kb, [this, cp, v] { acquire_version(*cp, v); });
      }
    }
    resync_visits(child);
  }
  if (report.promoted_supernode) {
    ServerState& sn =
        *servers_[static_cast<std::size_t>(*report.promoted_supernode)];
    catch_up_visits(sn);
    sn.method = UpdateMethod::kPush;
    sn.sa_in_invalidation_mode = false;
    ensure_polling(sn);  // stops the poll timer (Push does not poll)
    if (!sn.departed && !sn.fetch_in_flight) begin_fetch(sn);
    resync_visits(sn);
  }
}

void UpdateEngine::ensure_polling(ServerState& s) {
  if (!uses_polling(s.method)) {
    if (s.poll_timer) s.poll_timer->stop();
    if (s.adapt_timer) s.adapt_timer->stop();
    return;
  }
  ServerState* sp = &s;
  if (!s.poll_timer) {
    s.poll_timer = std::make_unique<sim::PeriodicTimer>(
        sim_of(s.id), config_.method.server_ttl_s, [this, sp] { poll_tick(*sp); },
        kTagPollTick);
    s.poll_timer->attach_profiler(event_profiler_, ps_timer_);
  }
  s.poll_timer->set_period(config_.method.server_ttl_s);
  s.poll_timer->start_after(rng_of(s.id).uniform(0.0, config_.method.server_ttl_s));
  if (s.method == UpdateMethod::kRateAdaptive) {
    if (!s.adapt_timer) {
      s.adapt_timer = std::make_unique<sim::PeriodicTimer>(
          sim_of(s.id), config_.method.rate_window_s,
          [this, sp] { rate_adapt_tick(*sp); }, kTagAdaptTick);
      s.adapt_timer->attach_profiler(event_profiler_, ps_timer_);
    }
    if (!s.adapt_timer->running()) s.adapt_timer->start();
  }
}

// ---------------------------------------------------------------------------
// Users — legacy per-visit path
// ---------------------------------------------------------------------------

void UpdateEngine::start_users() {
  const bool dns_mode = config_.user_attachment == UserAttachment::kDnsCache;
  const std::size_t total_users =
      dns_mode ? config_.dns_user_count : config_.users_per_server * servers_.size();
  user_logs_ = std::make_unique<cdn::UserPopulationLog>(total_users);
  tallies_.assign(total_users, UserTally{});
  users_.reserve(total_users);

  std::vector<net::Placement> dns_placements;
  if (dns_mode) {
    util::Rng placement_rng = rng_.fork(0xd5u);
    dns_placements =
        net::place_nodes(total_users, config_.dns_user_placement, placement_rng);
    dns_ = std::make_unique<cdn::DnsSystem>(*nodes_, config_.dns, rng_.fork(0xd50));
  }

  for (std::size_t i = 0; i < total_users; ++i) {
    auto u = std::make_unique<UserState>();
    u->id = static_cast<cdn::UserId>(i);
    if (dns_mode) {
      // No home server: resolution happens per visit.
      const cdn::UserId registered =
          dns_->register_user(dns_placements[i].location);
      CDNSIM_EXPECTS(registered == u->id, "DNS user ids must match engine ids");
    } else {
      u->home_server = static_cast<NodeId>(i / config_.users_per_server);
    }
    if (!visit_batching_) {
      // kSwitchEveryVisit and kDnsCache visits draw RNGs (server choice, DNS
      // resolution) in event order; pinned users get here only as the
      // visit_batching = false reference of the equivalence tests.
      UserState* up = u.get();
      u->visit_timer = std::make_unique<sim::PeriodicTimer>(
          *sim_, config_.user_poll_period_s, [this, up] { user_visit(*up); },
          kTagUserVisit);
      u->visit_timer->attach_profiler(event_profiler_, ps_timer_);
      u->visit_timer->start_after(rng_.uniform(0.0, config_.user_start_window_s));
    }
    users_.push_back(std::move(u));
  }

  if (visit_batching_) {
    // build_visit_schedule draws the per-user phases in user-id order —
    // exactly the draws the timer setup above would have made, so the
    // engine RNG advances identically on both paths.
    visit_plan_ = std::make_unique<trace::VisitSchedule>(trace::build_visit_schedule(
        servers_.size(), config_.users_per_server, config_.user_poll_period_s,
        config_.user_start_window_s, end_time_, rng_));
    for (auto& s : servers_) {
      const auto& times =
          visit_plan_->servers[static_cast<std::size_t>(s->id)].times;
      s->next_visit_time =
          times.empty() ? std::numeric_limits<sim::SimTime>::infinity()
                        : times.front();
      schedule_visit_event(*s);
    }
  }
}

void UpdateEngine::user_visit(UserState& u) {
  if (sim_->now() >= end_time_) {
    u.visit_timer->stop();
    return;
  }
  NodeId target = u.home_server;
  if (config_.user_attachment == UserAttachment::kSwitchEveryVisit) {
    target = static_cast<NodeId>(rng_.index(servers_.size()));
  } else if (config_.user_attachment == UserAttachment::kDnsCache) {
    target = dns_->resolve(u.id, sim_->now()).server;
  }
  const bool redirected = u.last_server != -2 && target != u.last_server;
  u.last_server = target;
  serve_user(*servers_[static_cast<std::size_t>(target)], u, redirected);
}

void UpdateEngine::serve_user(ServerState& s, UserState& u, bool redirected) {
  const sim::SimTime now = sim_of(s.id).now();
  ++counters_of(s.id).visits;
  if (s.departed || s.absent_at(now)) {
    ++counters_of(s.id).visits_unanswered;
    record_observation(s, u, now, redirected, false);
    return;
  }
  if (s.method == UpdateMethod::kRateAdaptive) ++s.visits_in_window;
  if (s.invalidation_active() && s.invalid_known > version_of(s.id)) {
    // Content is invalid: fetch before serving (Invalidation semantics).
    s.waiting_users.push_back({&u, now, redirected});
    if (!s.fetch_in_flight) begin_fetch(s);
    return;
  }
  record_observation(s, u, now, redirected, true);
}

void UpdateEngine::record_observation(const ServerState& s, const UserState& u,
                                      sim::SimTime request_time,
                                      bool redirected, bool answered) {
  const cdn::UserObservation obs{
      .request_time = request_time,
      .serve_time = sim_of(s.id).now(),
      .server = s.id,
      .version = answered ? version_of(s.id) : 0,
      .redirected = redirected,
      .answered = answered};
  if (visit_batching_) {
    user_logs_->log(u.id).add(obs);  // until materialize_user_logs()
  } else {
    if (answered) {
      tally_answer(tallies_[static_cast<std::size_t>(u.id)], obs.version,
                   obs.serve_time);
    }
    if (config_.record_user_logs) user_logs_->log(u.id).add(obs);
  }
  if (config_.record_poll_log) {
    poll_log_.add({obs.server, obs.serve_time, obs.version, obs.answered});
  }
}

void UpdateEngine::tally_answer(UserTally& t, Version version,
                                sim::SimTime serve_time) const {
  ++t.answered;
  if (version < t.max_seen) ++t.stale;
  t.max_seen = std::max(t.max_seen, version);
  // First serve showing each version the user had not seen yet.
  const Version last = std::min(version, updates_->update_count());
  for (; t.next_needed <= last; ++t.next_needed) {
    t.first_seen_sum += serve_time - updates_->update_time(t.next_needed);
    ++t.first_seen_count;
  }
}

// ---------------------------------------------------------------------------
// Users — batched path
// ---------------------------------------------------------------------------

// A "blocked" server must see visits at their exact arrival times: each one
// joins waiting_users and may trigger a fetch, so bulk processing would
// change behaviour. Everywhere else a pinned-local visit is a pure read.
bool UpdateEngine::visit_pump_needed(const ServerState& s) const {
  return !s.departed && s.invalidation_active() &&
         s.invalid_known > version_of(s.id);
}

void UpdateEngine::catch_up_visits(ServerState& s) {
  // Hot-path early-out: callers flush before *every* state mutation and
  // most flushes find an empty window (ROADMAP hot spot #1).
  // next_visit_time mirrors plan.times[visit_cursor] (+inf when exhausted
  // or unbatched), so the empty case is one comparison instead of a plan
  // chase into the walk.
  if (!s.has_pending_visits_before(sim_of(s.id).now())) return;
  catch_up_visits_until(s, sim_of(s.id).now());
}

// Bulk-processes the server's pending visits strictly before `upto`.
// Callers invoke this immediately BEFORE any mutation of user-visible
// server state (version, invalid_known, departed, method), so every visit
// in the backlog is evaluated against the state that held when it arrived.
void UpdateEngine::catch_up_visits_until(ServerState& s, sim::SimTime upto) {
  if (!visit_batching_) return;
  const trace::VisitSchedule::PerServer& plan =
      visit_plan_->servers[static_cast<std::size_t>(s.id)];
  std::size_t i = s.visit_cursor;
  const std::size_t n = plan.times.size();
  if (i >= n || plan.times[i] >= upto) return;
  // A blocked server runs in pump mode, which keeps the cursor current —
  // so the early return above always fires first for it. (Order matters:
  // this guard must come after that return, not before.)
  CDNSIM_EXPECTS(!visit_pump_needed(s),
                 "bulk visit walk while the server is blocked");
  const bool rate_adaptive = s.method == UpdateMethod::kRateAdaptive;
  LaneCounters& c = counters_of(s.id);
  // The server's user-visible state cannot change inside one walk — every
  // caller flushes the backlog *before* mutating — so the branch structure
  // is hoisted out of the per-visit loop. Users are pinned (plan.users[i]
  // IS the user id) and a bulk visit is a pure read, so the common path
  // below never touches UserState at all.
  if (!s.departed && s.absence == nullptr) {
    // Fast path: every pending visit is answered with the same version, so
    // the whole window collapses to a range scan plus one run-length
    // record — no per-visit work at all.
    const std::size_t begin = i;
    // Linear, not lower_bound: the cursor advances a handful of entries per
    // call, so a sequential scan beats a binary search over the whole tail.
    while (i < n && plan.times[i] < upto) ++i;
    if (i > begin) {
      s.visit_log_runs.push_back({static_cast<std::uint32_t>(begin),
                                  static_cast<std::uint32_t>(i),
                                  version_of(s.id), true});
    }
    const std::uint64_t count = i - begin;
    c.visits += count;
    if (rate_adaptive) s.visits_in_window += count;
  } else {
    std::uint64_t visits = 0;
    std::uint64_t unanswered = 0;
    std::uint64_t in_window = 0;
    const Version version = version_of(s.id);
    // Coalesce the walk into maximal same-outcome runs (answered flips only
    // at absence-window edges, so runs are long).
    std::size_t run_begin = i;
    bool run_answered = false;
    const auto flush_run = [&](std::size_t end) {
      if (end == run_begin) return;
      s.visit_log_runs.push_back({static_cast<std::uint32_t>(run_begin),
                                  static_cast<std::uint32_t>(end),
                                  run_answered ? version : 0, run_answered});
    };
    while (i < n && plan.times[i] < upto) {
      const sim::SimTime t = plan.times[i];
      ++visits;
      const bool answered = !(s.departed || s.absent_at(t));
      if (i != run_begin && answered != run_answered) {
        flush_run(i);
        run_begin = i;
      }
      run_answered = answered;
      if (!answered) {
        ++unanswered;
      } else if (rate_adaptive) {
        ++in_window;
      }
      ++i;
    }
    flush_run(i);
    c.visits += visits;
    c.visits_unanswered += unanswered;
    s.visits_in_window += in_window;
  }
  s.visit_cursor = i;
  s.next_visit_time =
      i < n ? plan.times[i] : std::numeric_limits<sim::SimTime>::infinity();
}

// Called immediately AFTER any state mutation that may change blockedness:
// re-arms the server's next visit event in the right mode.
void UpdateEngine::resync_visits(ServerState& s) {
  if (!visit_batching_) return;
  const trace::VisitSchedule::PerServer& plan =
      visit_plan_->servers[static_cast<std::size_t>(s.id)];
  if (s.visit_cursor >= plan.times.size()) {
    if (s.visit_event.pending()) s.visit_event.cancel();
    return;
  }
  const bool pump = visit_pump_needed(s);
  if (pump == s.visit_pumping && s.visit_event.pending()) return;
  schedule_visit_event(s);
}

void UpdateEngine::schedule_visit_event(ServerState& s) {
  if (s.visit_event.pending()) s.visit_event.cancel();
  const trace::VisitSchedule::PerServer& plan =
      visit_plan_->servers[static_cast<std::size_t>(s.id)];
  if (s.visit_cursor >= plan.times.size()) {
    s.visit_pumping = false;
    return;
  }
  const sim::SimTime next = plan.times[s.visit_cursor];
  s.visit_pumping = visit_pump_needed(s);
  ServerState* sp = &s;
  if (s.visit_pumping) {
    // Blocked: the next visit must fire at its exact arrival time.
    s.visit_event = sim_of(s.id).at(next, kTagUserVisit,
                                    [this, sp] { pump_visit(*sp); });
    return;
  }
  // Unblocked: one flush event at the epoch boundary after the next visit.
  const double epoch = config_.visit_batch_epoch_s;
  sim::SimTime boundary = (std::floor(next / epoch) + 1.0) * epoch;
  if (boundary <= next) boundary = next + epoch;
  if (boundary >= end_time_) return;  // the horizon flush covers the tail
  s.visit_event = sim_of(s.id).at(boundary, kTagVisitBatch,
                                  [this, sp] { visit_batch_event(*sp); });
}

void UpdateEngine::visit_batch_event(ServerState& s) {
  catch_up_visits(s);
  schedule_visit_event(s);
}

// One visit at its exact arrival time — the blocked-server slow path,
// mirroring the legacy user_visit() for a pinned user.
void UpdateEngine::pump_visit(ServerState& s) {
  const trace::VisitSchedule::PerServer& plan =
      visit_plan_->servers[static_cast<std::size_t>(s.id)];
  CDNSIM_EXPECTS(s.visit_cursor < plan.times.size(), "pump past the schedule");
  // Pinned attachment: batched visits never redirect, so last_server (a
  // legacy-path concern) is left untouched.
  UserState& u = *users_[plan.users[s.visit_cursor]];
  ++s.visit_cursor;
  s.next_visit_time = s.visit_cursor < plan.times.size()
                          ? plan.times[s.visit_cursor]
                          : std::numeric_limits<sim::SimTime>::infinity();
  serve_user(s, u, false);
  schedule_visit_event(s);
}

// Horizon handling for one server: stop periodic activity and flush the
// tail of the visit schedule (every scheduled visit is < end_time_).
void UpdateEngine::horizon_server(ServerState& s) {
  if (s.poll_timer) s.poll_timer->stop();
  if (s.adapt_timer) s.adapt_timer->stop();
  if (!visit_batching_) return;
  catch_up_visits_until(s, end_time_);
  if (s.visit_event.pending()) s.visit_event.cancel();
  s.visit_pumping = false;
}

// ---------------------------------------------------------------------------
// Run
// ---------------------------------------------------------------------------

void UpdateEngine::run() {
  if (sharded_) {
    run_sharded();
    finish_timeseries();
    publish_run_stats();
    return;
  }
  prepare();
  if (ts_ == nullptr) {
    sim_->run();
  } else {
    // Grid-driven execution: run strictly up to each sample point, record
    // the row, repeat. The loop's final row lands on the first grid point
    // strictly after the last event, so the delta columns' totals cover
    // the whole run (check_obs.py reconciles them against the registry).
    for (;;) {
      sim_->run_before(ts_->next_sample_time());
      sample_timeseries();
      if (sim_->drained()) break;
    }
  }
  finish_timeseries();
  publish_run_stats();
}

void UpdateEngine::prepare() {
  CDNSIM_EXPECTS(!sharded_,
                 "sharded engines cannot share an external simulator; use run()");
  CDNSIM_EXPECTS(!ran_, "UpdateEngine may only be prepared/run once");
  ran_ = true;

  // Last engine prepared on a shared Simulator wins the profiler slot;
  // profiled runs use one engine per simulator (BatchRunner jobs).
  if (profiler_ != nullptr) sim_->attach_profiler(profiler_, tag_slots_);
  prepare_events();
}

void UpdateEngine::prepare_events() {
  meter_subscriptions();
  for (auto& s : servers_) start_server(*s);
  start_users();

  for (Version v = 1; v <= updates_->update_count(); ++v) {
    const sim::SimTime t = updates_->update_time(v);
    sim_of(kProviderNode).at(t, kTagProviderUpdate,
                             [this, v] { on_provider_update(v); });
  }

  schedule_next_failure();
  schedule_brownouts();

  // Stop all periodic activity at the horizon; in-flight messages drain.
  // One horizon event per lane, each flushing only its own servers.
  for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
    lanes_[lane].sim->at(end_time_, kTagHorizon, [this, lane] {
      for (auto& s : servers_) {
        if (lane_index_of(s->id) == lane) horizon_server(*s);
      }
      // Only per-visit users have timers, and they never run sharded.
      for (auto& u : users_) {
        if (u->visit_timer) u->visit_timer->stop();
      }
    });
  }
}

// The sharded driver. Each round picks a barrier, the first epoch-grid point
// strictly after the earliest pending event, and runs every lane up to it.
// Cross-lane messages a lane emits during a round are staged in the merge
// queue's write generation; flip() turns them into per-target columns, and
// each lane's worker injects its own column at the start of the next round,
// concurrently with the other lanes.
//
// Barrier-fold invariant: a staged message is a pending event like any
// other. Its arrival is quantized to the epoch grid ahead of every lane
// clock, so folding the staged minimum into the next-event minimum yields
// the barrier sequence of a run in which every message is injected the
// moment it is sent. That sequence, and each lane's (arrival, sender, seq)
// injection order, are functions of the simulated history alone, never of
// the lane count, the worker count or thread timing.
void UpdateEngine::run_sharded() {
  CDNSIM_EXPECTS(!ran_, "UpdateEngine may only be prepared/run once");
  ran_ = true;
  prepare_events();

  const std::size_t lane_count = lanes_.size();
  std::size_t worker_count =
      config_.shard.workers > 0
          ? static_cast<std::size_t>(config_.shard.workers)
          : std::min(lane_count, util::ThreadPool::hardware_threads());
  worker_count = std::max<std::size_t>(1, std::min(worker_count, lane_count));
  std::unique_ptr<util::ThreadPool> pool;
  if (worker_count > 1) pool = std::make_unique<util::ThreadPool>(worker_count);

  const double epoch = config_.shard.epoch_s;
  std::int64_t last_k = std::numeric_limits<std::int64_t>::min();
  std::vector<std::exception_ptr> errors(lane_count);
  sim::ShardMergeQueue* merge = merge_.get();
  for (;;) {
    sim::SimTime min_next = std::numeric_limits<sim::SimTime>::infinity();
    for (const Lane& lane : lanes_) {
      if (!lane.sim->drained()) {
        min_next = std::min(min_next, lane.sim->next_event_time());
      }
    }
    min_next = std::min(min_next, merge->min_staged_arrival());
    if (!(min_next < std::numeric_limits<sim::SimTime>::infinity())) break;
    // Sample points at or before the next pending event are complete
    // (everything strictly before them has fired); emit them before running
    // further. Staged messages are future events, correctly outside the
    // sampled prefix.
    if (ts_ != nullptr) {
      while (ts_->next_sample_time() <= min_next) sample_timeseries();
    }
    // Every event fired this round lies in one epoch cell, whose closing
    // grid point is exactly what per-message arrival quantization computes.
    // The backstop keeps barriers strictly monotone even if floating point
    // misplaces a grid-aligned event.
    std::int64_t next_k =
        static_cast<std::int64_t>(std::floor(min_next / epoch)) + 1;
    if (next_k <= last_k) next_k = last_k + 1;
    sim::SimTime barrier = static_cast<double>(next_k) * epoch;
    if (ts_ != nullptr && ts_->next_sample_time() < barrier) {
      // Partial round up to the sample point. Events still lie inside the
      // same epoch cell, so arrival quantization is unchanged; last_k is
      // committed only for full epoch barriers so the backstop never skips
      // a cell.
      barrier = ts_->next_sample_time();
    } else {
      last_k = next_k;
    }
    {
      obs::ProfileScope scope(profiler_, ps_shard_merge_);
      merge->flip();
    }
    update_shard_progress();
    const bool track_wall = ts_ != nullptr;
    const auto wall_start = track_wall ? std::chrono::steady_clock::now()
                                       : std::chrono::steady_clock::time_point();
    // One lane's round: inject its incoming column, then run it up to the
    // barrier. Every non-empty column must be consumed this round (flip()
    // precondition), even if nothing then runs before the barrier.
    const auto run_lane = [merge, barrier](std::size_t i, sim::Simulator& sim) {
      auto incoming = merge->take_incoming(i);
      for (auto& m : incoming) sim.at(m.arrival, m.tag, std::move(m.action));
      sim.run_before(barrier);
    };
    bool submitted = false;
    for (std::size_t i = 0; i < lane_count; ++i) {
      sim::Simulator& lane_sim = *lanes_[i].sim;
      const bool has_incoming = merge->incoming_count(i) > 0;
      const bool has_local =
          !lane_sim.drained() && lane_sim.next_event_time() < barrier;
      if (!has_incoming && !has_local) continue;
      if (pool == nullptr) {
        run_lane(i, lane_sim);
        continue;
      }
      std::exception_ptr* err = &errors[i];
      pool->submit([&run_lane, &lane_sim, err, i] {
        try {
          run_lane(i, lane_sim);
        } catch (...) {
          *err = std::current_exception();
        }
      });
      submitted = true;
    }
    if (submitted) pool->wait_idle();
    for (std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(std::exchange(e, nullptr));
    }
    if (track_wall) {
      ts_barrier_wait_ns_ += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - wall_start)
              .count());
    }
  }
  // One closing row strictly after the last event (the per-round clamp
  // keeps the grid caught up, so exactly one is pending at exit).
  if (ts_ != nullptr) sample_timeseries();
}

std::uint64_t UpdateEngine::events_processed() const {
  std::uint64_t total = 0;
  for (const Lane& lane : lanes_) total += lane.sim->events_processed();
  // The horizon flush is one logical event scheduled once per lane; count
  // it once so the total is independent of the lane decomposition
  // (byte-identical metrics across shard counts).
  const std::uint64_t surplus = lanes_.size() - 1;
  return total - std::min(total, surplus);
}

sim::SimTime UpdateEngine::final_time() const {
  sim::SimTime t = 0;
  for (const Lane& lane : lanes_) t = std::max(t, lane.sim->now());
  return t;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

const cdn::ReplicaRecorder& UpdateEngine::recorder(NodeId server) const {
  CDNSIM_EXPECTS(server >= 0 && static_cast<std::size_t>(server) < servers_.size(),
                 "unknown server id");
  return servers_[static_cast<std::size_t>(server)]->recorder;
}

std::vector<double> UpdateEngine::server_avg_inconsistency() const {
  std::vector<double> out;
  out.reserve(servers_.size());
  for (const auto& s : servers_) {
    out.push_back(s->recorder.average_inconsistency(*updates_));
  }
  return out;
}

std::vector<double> UpdateEngine::user_avg_inconsistency() const {
  std::vector<double> out;
  out.reserve(tallies_.size());
  for (const UserTally& t : tallies_) {
    out.push_back(t.first_seen_count == 0
                      ? 0.0
                      : t.first_seen_sum / static_cast<double>(t.first_seen_count));
  }
  return out;
}

std::vector<double> UpdateEngine::per_server_max_user_inconsistency() const {
  return per_server_max_user_inconsistency(user_avg_inconsistency());
}

std::vector<double> UpdateEngine::per_server_max_user_inconsistency(
    const std::vector<double>& per_user) const {
  CDNSIM_EXPECTS(config_.user_attachment != UserAttachment::kDnsCache,
                 "per-server user maxima need server-attached users; "
                 "kDnsCache users belong to no server");
  std::vector<double> out(servers_.size(), 0.0);
  for (std::size_t i = 0; i < per_user.size(); ++i) {
    const std::size_t server = i / config_.users_per_server;
    out[server] = std::max(out[server], per_user[i]);
  }
  return out;
}

double UpdateEngine::user_observed_inconsistency_fraction() const {
  std::uint64_t total = 0;
  std::uint64_t stale = 0;
  for (const UserTally& t : tallies_) {
    total += t.answered;
    stale += t.stale;
  }
  return total == 0 ? 0.0 : static_cast<double>(stale) / static_cast<double>(total);
}

}  // namespace cdnsim::consistency
