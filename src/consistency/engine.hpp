// The update engine: drives one trace through one infrastructure with the
// configured update methods and records every metric the paper's evaluation
// reports.
//
// The engine is a discrete-event program over the Simulator:
//  * the provider applies the UpdateTrace; on each update it pushes to
//    Push children, notifies Invalidation children and subscribed
//    SelfAdaptive children;
//  * every non-provider node does the same for *its* children whenever it
//    acquires a new version, so multicast trees propagate recursively;
//  * TTL-family nodes poll their parent on a timer; poll responses return
//    the parent's own cached version (this is what amplifies TTL
//    inconsistency with tree depth, Fig. 15);
//  * Invalidation-family nodes fetch from their parent at the first user
//    visit after a notice; fetches recurse upward when the parent itself is
//    invalid;
//  * SelfAdaptive nodes implement Algorithm 1: TTL until a poll returns no
//    update, then subscribe to invalidations; at the first visited fetch
//    they unsubscribe (the fetch request carries the switch notice) and
//    resume TTL.
//
// All transmissions pass through the sender's Uplink (serialization and
// queueing — the scalability mechanism of Figs. 19-20) and the latency
// model, and are accounted by the TrafficMeter.
//
// Execution modes (DESIGN.md "Batched visits and intra-run sharding"):
//  * batched visits (default for the pinned attachment): user arrivals are
//    precomputed into per-server SoA arrays (trace::VisitSchedule) and
//    walked in bulk — one batch event per server per epoch plus a catch-up
//    at every server state change — instead of one event per visit; logged
//    rows are expanded after the run. The walk is observationally identical
//    to the per-visit path; only the sim.event* gauges (event counts)
//    change. Per-visit timers remain for kSwitchEveryVisit and kDnsCache
//    (their visits draw RNGs in event order) and visit_batching = false.
//  * intra-run sharding (shard.shards > 0): servers are partitioned into
//    contiguous lanes, each lane an independent Simulator driven by a
//    ThreadPool worker; every network message crosses lanes through an
//    epoch-quantized ShardMergeQueue, and per-node RNG substreams replace
//    the engine-global draw stream. Output is byte-identical for any shard
//    or worker count (but not to the unsharded engine, whose message
//    arrivals are not epoch-quantized).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cdn/dns.hpp"
#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace_recorder.hpp"
#include "cdn/provider.hpp"
#include "cdn/replica_recorder.hpp"
#include "cdn/user_log.hpp"
#include "net/sites.hpp"
#include "consistency/infrastructure.hpp"
#include "net/latency_model.hpp"
#include "net/traffic_meter.hpp"
#include "net/uplink.hpp"
#include "pubsub/pubsub.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "trace/absence.hpp"
#include "trace/poll_log.hpp"
#include "util/rng.hpp"

namespace cdnsim::sim {
class ShardMergeQueue;
}
namespace cdnsim::trace {
struct VisitSchedule;
}

namespace cdnsim::consistency {

enum class UserAttachment {
  kPinnedLocal,       // users_per_server users pinned to each server (Sec. 4)
  kSwitchEveryVisit,  // every visit goes to a uniformly random server (Fig. 24)
  kDnsCache,          // local-DNS cache + authoritative reassignment (Sec. 3.3)
};

struct EngineConfig {
  MethodConfig method;
  InfrastructureConfig infrastructure;

  // Packet sizes (paper default: every package 1 KB; Fig. 19 sweeps the
  // content/update packet size while light messages stay small).
  double update_packet_kb = 1.0;
  double light_packet_kb = 1.0;

  // Uplink bandwidths (KB/s). The provider's uplink is the contended
  // resource in unicast Push.
  double provider_uplink_kbps = 2500.0;  // 20 Mbit/s
  double server_uplink_kbps = 2500.0;

  net::LatencyConfig latency;

  // End users.
  std::size_t users_per_server = 5;
  sim::SimTime user_poll_period_s = 10.0;  // "end-user TTL"
  UserAttachment user_attachment = UserAttachment::kPinnedLocal;
  /// Users start their visit loops at a uniform time in [0, this].
  sim::SimTime user_start_window_s = 50.0;
  /// kDnsCache only: population size (the paper uses 200 PlanetLab users)
  /// and the local-DNS model; users are placed on world sites.
  std::size_t dns_user_count = 200;
  cdn::DnsConfig dns;
  net::PlacementConfig dns_user_placement;

  /// Batched user-visit processing: precompute per-server arrival arrays
  /// and walk them in bulk instead of one simulator event per visit.
  /// Effective for kPinnedLocal (the other attachments keep the per-visit
  /// path). Observationally identical to the per-visit path — same draws,
  /// same user and poll logs, same counters — except for the sim.event*
  /// gauges, which count the (far fewer) events actually fired. `false`
  /// exists only as the reference visit_batch_equivalence_test holds the
  /// batched walk to.
  bool visit_batching = true;
  /// Batch flush cadence (s). Purely an execution knob: results are
  /// flushed at every server state change and at the horizon regardless,
  /// so any value > 0 yields identical output.
  sim::SimTime visit_batch_epoch_s = 20.0;

  /// Intra-run sharding: partition servers into `shards` contiguous groups
  /// ("lanes"), each driven as an independent event stream on a ThreadPool
  /// worker, with cross-lane messages exchanged through an epoch-barrier
  /// merge queue. Requires batched visits with the pinned attachment and
  /// no churn / poll log / trace events / shared provider uplink.
  struct ShardConfig {
    /// `shards = kAuto`: pick the lane count from the server count and the
    /// hardware thread count (see resolved_shard_count), falling back to
    /// classic execution when the configuration does not support sharding.
    static constexpr int kAuto = -1;
    /// > 0 enables sharding with this many lanes (clamped to the server
    /// count); kAuto picks a lane count automatically; 0 disables.
    /// Output is byte-identical for any supported positive value, and an
    /// auto-resolved engine is byte-identical to `shards = 1`.
    int shards = 0;
    /// Barrier pitch (s): every cross-lane message arrives at the first
    /// epoch-grid point after its send time or its network arrival,
    /// whichever is later.
    sim::SimTime epoch_s = 0.25;
    /// Worker threads driving the lanes; 0 = min(shards, hardware),
    /// negative values are rejected. Each worker injects its lane's
    /// incoming cross-lane messages from the previous epoch at the start of
    /// the lane's round, so merge work overlaps lane execution. Output is
    /// byte-identical for any value.
    int workers = 0;
  };
  ShardConfig shard;

  /// Shift applied to all trace update times (the paper starts updates at
  /// t = 60 s, after users began visiting).
  sim::SimTime trace_offset_s = 60.0;
  /// Keep simulating this long past the last update so slow paths settle.
  sim::SimTime tail_s = 120.0;

  /// Origin-staleness model for the provider (Section 3.4.2); 0 = exact.
  cdn::ProviderConfig provider;

  /// Infrastructure churn: random server crashes during the run. A crashed
  /// server loses in-flight messages, answers nothing, and (with repair
  /// enabled) is cut out of the update topology, its children re-attaching
  /// per the Section 5.2 rule — failed supernodes trigger an election. With
  /// repair disabled, the topology is left broken while the node is down
  /// (the Section 1 criticism of multicast infrastructures). On return the
  /// node rejoins and fetches the current content from its parent.
  struct ChurnConfig {
    double failures_per_hour = 0.0;  // expected crashes per hour, whole CDN
    sim::SimTime downtime_mean_s = 120.0;
    bool repair_enabled = true;
  };
  ChurnConfig churn;

  /// Network fault injection: message loss / duplication / delay jitter,
  /// ISP-pair partitions and uplink brownouts (src/fault). Disabled by
  /// default; an enabled plan with all rates at zero is byte-identical to a
  /// disabled one (the injector draws from its own substream RNG and makes
  /// no draw for a zero rate). Dropped messages still pay the sender's
  /// uplink and are metered — they are sent, then lost in flight.
  fault::FaultPlan fault;

  /// Reliable delivery for hard-state messages (kPushUpdate, kInvalidation,
  /// kFetchResponse): each transmission expects a kAck from the receiver;
  /// missing acks trigger retransmissions with exponential backoff until the
  /// retry budget is exhausted, at which point the sender gives up and the
  /// destination's inconsistency window stays open. Fetch requests ride the
  /// same budget as a requester-driven RPC guard: a fetch that produces no
  /// response in time is re-issued, and on give-up the requester unwedges
  /// itself (fetch_in_flight cleared, waiting users failed). Off by
  /// default — the soft-state methods of the paper need no transport help.
  struct ReliableConfig {
    bool enabled = false;
    sim::SimTime ack_timeout_s = 2.0;  // first-attempt ack deadline
    double backoff_factor = 2.0;       // deadline multiplier per retry
    int max_retries = 4;               // retransmissions after the first send
  };
  ReliableConfig reliable;

  /// Pub/sub fan-out (DESIGN.md "Pub/sub fan-out and flow control"). Under
  /// the multicast and hybrid infrastructures every interior node relays
  /// updates through a pubsub::Topic pair (content pushes / invalidation
  /// notices); with `flow_window == 0` — the default — the topic walker
  /// replays exactly the legacy child-list send sequence, byte-identical to
  /// pre-pub/sub engines. `flow_window > 0` enables per-subscriber credit
  /// windows: a subscriber with `flow_window` unconfirmed deliveries stops
  /// receiving live fan-out (it is *lagging*) and instead tails the missed
  /// versions from the relay's bounded update log once a confirmation
  /// frees a credit. Confirmations come from reliable-delivery acks when
  /// `reliable.enabled`, otherwise from the sender-side arrival estimate of
  /// the (possibly lost) transmission. Unicast infrastructures never build
  /// topics, so this knob is inert there.
  struct PubSubConfig {
    /// Per-subscriber credit window (max unconfirmed deliveries);
    /// 0 disables flow control.
    std::uint32_t flow_window = 0;
    /// Retained entries per topic update log; catch-up past a trimmed
    /// entry skips ahead instead of reading.
    std::size_t log_capacity = pubsub::Topic::kDefaultLogCapacity;
    /// Unreliable transports only: delay before a subscriber whose
    /// catch-up transmission was lost re-tails the log (reliable mode
    /// spaces re-tails by its own retry budget instead).
    sim::SimTime catchup_retry_s = 2.0;
  };
  PubSubConfig pubsub;

  std::uint64_t seed = 1;

  /// Record every user observation into the PollLog, in time order (needed
  /// by the Section 3 analysis pipeline; off by default to save memory).
  /// Sharded engines reject it.
  bool record_poll_log = false;
  /// Record per-user observation logs (needed for user-perspective metrics;
  /// disable for large measurement sweeps that only use the poll log).
  bool record_user_logs = true;
  /// Record Chrome trace events (version acquisitions, mode switches,
  /// churn) into the engine's TraceRecorder. Off by default: tracing
  /// allocates per event, unlike the always-on counters.
  bool record_trace_events = false;

  /// Dispatch/phase profiler (borrowed, must outlive the engine; never
  /// shared between jobs). When set, prepare() attaches it to the Simulator
  /// with the engine's event-tag table and every engine phase opens a
  /// ProfileScope. When null — the default — the only residue is one
  /// null-check per phase entry (the zero-cost contract). Sharded runs
  /// profile only driver-thread phases (tree build, shard.merge): the
  /// single-threaded Profiler must not be shared with lane workers.
  obs::Profiler* profiler = nullptr;

  /// Time-resolved telemetry (DESIGN.md "Time-resolved telemetry"). When
  /// timeseries_sample_s > 0 and `timeseries` is set (borrowed, must
  /// outlive the engine; never shared between jobs), the run records one
  /// row per sample_s of sim time — consistency state, engine/fault/
  /// reliable counter deltas, per-MessageKind traffic, uplink backlog —
  /// plus per-update propagation spans. Sampling rides the sim-time grid
  /// (classic: run_before per grid point; sharded: samples interleave with
  /// the epoch barriers), so the deterministic section is byte-identical
  /// across shard and worker counts. Unlike the profiler, time series do
  /// NOT force classic execution. When null — the default — the only
  /// residue is one null-check in acquire_version (span hook).
  double timeseries_sample_s = 0;
  obs::TimeSeries* timeseries = nullptr;

  /// Live per-lane progress sink for the batch heartbeat (borrowed; may be
  /// shared with a reader thread — all slots are relaxed atomics). Sharded
  /// runs update it once per barrier round; host-only, never part of any
  /// artifact's deterministic section.
  obs::ShardProgress* shard_progress = nullptr;
};

/// Config-level sharding support check, shared by the auto resolution and
/// the benches' flag wiring: true when `config` satisfies the sharded
/// constructor preconditions (batched pinned visits, no poll log / trace
/// events / churn) and is not profiled (a profiled run stays classic so the
/// event-tag scopes remain attributable).
bool shard_supported(const EngineConfig& config);

/// Number of lanes an engine constructed with `config` over `server_count`
/// servers will use: 0 = classic unsharded execution, >= 1 = sharded with
/// that many lanes. Explicit `shard.shards > 0` is clamped to the server
/// count; `ShardConfig::kAuto` resolves to min(hardware threads, servers /
/// per-lane floor), floored at one lane, when the configuration supports
/// sharding (see shard_supported) and to 0 when it does not — so an
/// auto-configured bench degrades to classic execution instead of tripping
/// the sharding preconditions, while a supported auto config always stays
/// on the sharded driver (classic has different message timing, and auto
/// must stay byte-identical to every explicit count). `hardware_threads =
/// 0` means detect; pass a value explicitly for deterministic tests.
int resolved_shard_count(const EngineConfig& config, std::size_t server_count,
                         std::size_t hardware_threads = 0);

class UpdateEngine {
 public:
  /// `absences` may be empty (no failures) or one schedule per server.
  /// `shared_provider_uplink` (optional, not owned, must outlive the
  /// engine) lets several engines on one Simulator contend for the same
  /// provider uplink — the multi-content scenario where one popular content
  /// congests the origin for everyone (Section 1's bottleneck argument).
  UpdateEngine(sim::Simulator& simulator, const topology::NodeRegistry& nodes,
               const trace::UpdateTrace& updates, EngineConfig config,
               std::vector<trace::AbsenceSchedule> absences = {},
               net::Uplink* shared_provider_uplink = nullptr);

  UpdateEngine(const UpdateEngine&) = delete;
  UpdateEngine& operator=(const UpdateEngine&) = delete;
  ~UpdateEngine();

  /// Schedules all initial events without running the simulator — used to
  /// co-schedule several engines (contents) on one Simulator; call
  /// Simulator::run() afterwards. Not available for sharded engines, whose
  /// event streams live on internal per-lane simulators.
  void prepare();

  /// prepare() + run the simulation to completion. Sharded engines run
  /// their lanes here (on a ThreadPool when shard.workers != 1).
  void run();

  // --- results (valid after run()) ---
  const Infrastructure& infrastructure() const { return infra_; }
  const net::TrafficMeter& meter() const { return meter_; }
  const cdn::ReplicaRecorder& recorder(topology::NodeId server) const;
  const cdn::UserPopulationLog& user_logs() const { return *user_logs_; }
  const trace::PollLog& poll_log() const { return poll_log_; }
  std::size_t user_count() const { return users_.size(); }
  sim::SimTime end_time() const { return end_time_; }

  /// Total events fired — the external Simulator's count for classic
  /// engines, the sum over lanes for sharded ones.
  std::uint64_t events_processed() const;
  /// Clock position after the run: Simulator::now() for classic engines,
  /// the max over lanes (i.e. the time of the globally last event) for
  /// sharded ones.
  sim::SimTime final_time() const;

  /// Per-server average inconsistency (Figs. 14a/15a/19/20).
  std::vector<double> server_avg_inconsistency() const;
  /// Per-user average first-seen inconsistency (Figs. 14b/15b).
  std::vector<double> user_avg_inconsistency() const;
  /// Largest per-user average on each server (the paper plots per node).
  std::vector<double> per_server_max_user_inconsistency() const;
  /// Same, folding an already-computed user_avg_inconsistency() vector so
  /// result assembly scans the user logs once instead of twice.
  std::vector<double> per_server_max_user_inconsistency(
      const std::vector<double>& per_user) const;
  /// Fraction of user observations showing content older than previously
  /// seen by the same user (Fig. 24).
  double user_observed_inconsistency_fraction() const;
  /// Churn statistics (0 when churn is disabled).
  std::size_t failures_injected() const { return failures_injected_; }

  /// The engine's metric registry. Populated by publish_run_stats():
  /// counters and the inconsistency histogram accumulate per lane / per
  /// server during the run and are folded in deterministically, then the
  /// end-of-run gauges (simulator queue stats, traffic totals, provider
  /// uplink) are set. run() publishes automatically; engines co-scheduled
  /// via prepare() + external Simulator::run() must call
  /// publish_run_stats() themselves before reading this.
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  /// Recorded trace events (empty unless config.record_trace_events).
  const obs::TraceRecorder& trace_events() const { return trace_; }
  /// Folds lane counters/meters and copies simulator/meter/uplink
  /// end-of-run totals into metrics(). Idempotent; called by run().
  void publish_run_stats();

 private:
  struct ServerState;
  struct UserState;
  struct ReliableState;
  struct Sender;

  /// Plain per-lane counter mirror of the registry counters. Each lane
  /// accumulates its own copy (single-writer under sharding) and
  /// fold_lane_stats() sums them into metrics_ — integer adds, so the fold
  /// is exact and order-independent.
  struct LaneCounters {
    std::array<std::uint64_t, kUpdateMethodCount> acquired{};
    std::array<std::uint64_t, kUpdateMethodCount> polls{};
    std::array<std::uint64_t, kUpdateMethodCount> fetches{};
    std::array<std::uint64_t, kUpdateMethodCount> invalidations{};
    std::uint64_t mode_switches = 0;
    std::uint64_t visits = 0;
    std::uint64_t visits_unanswered = 0;
    std::uint64_t fault_dropped = 0;
    std::uint64_t fault_partition_dropped = 0;
    std::uint64_t fault_duplicated = 0;
    std::uint64_t fault_brownouts = 0;
    std::uint64_t reliable_retries = 0;
    std::uint64_t reliable_give_ups = 0;
    /// Pub/sub walker counters (single-writer: a relay's topics are only
    /// touched by events on the relay's own lane).
    pubsub::FanoutStats pubsub;
  };

  /// One execution context. A classic engine is lane 0 alone, whose `sim`
  /// is the external simulator; a sharded engine's lanes point into
  /// lane_sims_, one engine-owned Simulator each. Cache-line aligned:
  /// counters and meters are written concurrently by different workers.
  struct alignas(64) Lane {
    sim::Simulator* sim = nullptr;  // not owned
    net::TrafficMeter meter;
    LaneCounters counters;
    obs::SpanBuffer spans;  // propagation-span applies (single-writer)
  };

  /// Sums every lane's counters (exact integer adds, order-independent).
  /// Shared by fold_lane_stats() and sample_timeseries().
  LaneCounters sum_lane_counters() const;

  // lane anchoring: every helper resolves through the node that owns the
  // execution context, so sharded handlers always touch their own lane.
  std::size_t lane_index_of(topology::NodeId node) const {
    return lane_of_[static_cast<std::size_t>(node + 1)];
  }
  sim::Simulator& sim_of(topology::NodeId node) {
    return *lanes_[lane_index_of(node)].sim;
  }
  const sim::Simulator& sim_of(topology::NodeId node) const {
    return *lanes_[lane_index_of(node)].sim;
  }
  util::Rng& rng_of(topology::NodeId node);
  fault::Injector* injector_of(topology::NodeId node);
  net::TrafficMeter& meter_of(topology::NodeId node) {
    return lanes_[lane_index_of(node)].meter;
  }
  LaneCounters& counters_of(topology::NodeId node) {
    return lanes_[lane_index_of(node)].counters;
  }

  // message transport: one lone message through a Sender (see its
  // definition for the transmit/deliver split every message goes through)
  void send(topology::NodeId from, topology::NodeId to, net::MessageKind kind,
            double size_kb, sim::EventAction on_delivery);
  /// First epoch-grid point strictly after `now` (sharded engines only).
  sim::SimTime shard_barrier(sim::SimTime now) const;
  /// Sender::deliver after arrival quantization: absence deferral,
  /// departed guard, merge-queue emission / direct scheduling.
  void deliver_at(topology::NodeId from, topology::NodeId to,
                  net::MessageKind kind, sim::SimTime arrival,
                  sim::EventAction action);
  sim::SimTime draw_latency(topology::NodeId from, topology::NodeId to);
  net::Uplink& uplink_of(topology::NodeId node);
  const net::GeoPoint& location_of(topology::NodeId node) const;

  // reliable delivery (hard-state messages, see EngineConfig::reliable)
  void send_reliable(topology::NodeId from, topology::NodeId to,
                     net::MessageKind kind, double size_kb,
                     sim::EventAction on_delivery);
  void reliable_attempt(const std::shared_ptr<ReliableState>& st, int attempt);
  void reliable_deliver(const std::shared_ptr<ReliableState>& st);
  void send_ack(const std::shared_ptr<ReliableState>& st);

  // fault injection
  void record_injected_drop(bool partitioned, topology::NodeId from,
                            topology::NodeId to);
  void schedule_brownouts();

  // version bookkeeping. Server versions live in a flat per-server table
  // (versions_) rather than on ServerState: acquisition, propagation and
  // the visit walk read versions far more often than any other field, and
  // the flat table spares them the servers_ unique_ptr chase.
  trace::Version& version_of(topology::NodeId server) {
    return versions_[static_cast<std::size_t>(server)];
  }
  trace::Version version_of(topology::NodeId server) const {
    return versions_[static_cast<std::size_t>(server)];
  }
  trace::Version node_version(topology::NodeId node);  // provider = truth
  void acquire_version(ServerState& s, trace::Version v);
  void propagate_to_children(topology::NodeId node, trace::Version v);
  void notify_children(topology::NodeId node, trace::Version v);
  /// Rebuilds the per-node partitioned child lists (child_lists_) from the
  /// infrastructure. Called at construction and after every repair — the
  /// only times the topology or a node's method can change.
  void rebuild_child_lists();

  // pub/sub fan-out (multicast/hybrid delivery path; see
  // EngineConfig::PubSubConfig). Every node owns a content topic (kPush
  // children) and a notice topic (notice children); both mirror
  // child_lists_ order, so the flow-off walk replays the legacy send
  // sequence byte for byte.
  enum class PubsubChannel : std::uint8_t { kContent, kNotice };
  struct NodeTopics {
    pubsub::Topic content;
    pubsub::Topic notice;
    explicit NodeTopics(std::size_t log_capacity)
        : content(log_capacity), notice(log_capacity) {}
  };
  pubsub::Topic& topic_of(topology::NodeId node, PubsubChannel ch) {
    NodeTopics& t = topics_[static_cast<std::size_t>(node + 1)];
    return ch == PubsubChannel::kContent ? t.content : t.notice;
  }
  /// Rebuilds topics_ from child_lists_ (construction + after repair).
  /// Bumps pubsub_generation_ so in-flight confirmations of the old
  /// subscriber ids are dropped instead of misattributed.
  void rebuild_topics();
  /// Topic fan-out of `v` from `node` on channel `ch` — the pub/sub
  /// replacement for the direct child-list loops.
  void pubsub_publish(topology::NodeId node, PubsubChannel ch,
                      trace::Version v);
  /// What delivering `v` on channel `ch` does at server `to`: acquire the
  /// content, or take the invalidation notice.
  sim::EventAction delivery_action(PubsubChannel ch, topology::NodeId to,
                                   trace::Version v);
  /// Flow-controlled transport of one (possibly catch-up) delivery from
  /// the relay `sender` sends for.
  void pubsub_transmit(Sender& sender, PubsubChannel ch,
                       pubsub::SubscriberId sid, trace::Version v,
                       bool catch_up);
  /// Confirmation (ok) / loss verdict (!ok) of a flow-controlled
  /// transmission; may trigger an immediate catch-up tail or arm a
  /// deferred one. Runs on the relay's lane.
  void pubsub_settle(topology::NodeId relay, PubsubChannel ch,
                     pubsub::SubscriberId sid, trace::Version v, bool ok,
                     bool catch_up, std::uint64_t generation);
  /// Deferred re-tail after a lost catch-up (see PubSubConfig).
  void pubsub_retry_catch_up(topology::NodeId relay, PubsubChannel ch,
                             pubsub::SubscriberId sid,
                             std::uint64_t generation);
  /// Sends the tail of the relay's log to a subscriber that just took a
  /// credit for it (settle()/begin_catch_up() returned true).
  void pubsub_send_tail(topology::NodeId relay, PubsubChannel ch,
                        pubsub::SubscriberId sid);
  /// Meters one kSubscribe registration per (topic, subscriber) when flow
  /// control is on — the subscription traffic of the pub/sub layer.
  void meter_subscriptions();
  void on_ack(const std::shared_ptr<ReliableState>& st);

  // provider side
  void on_provider_update(trace::Version v);
  void handle_poll_at_parent(topology::NodeId parent, topology::NodeId child,
                             trace::Version child_version);
  void handle_fetch_at_parent(topology::NodeId parent, topology::NodeId child);
  void answer_fetch(topology::NodeId parent, topology::NodeId child);

  // server side
  void start_server(ServerState& s);
  void poll_tick(ServerState& s);
  void on_poll_response(ServerState& s, trace::Version v, bool fresh);
  void on_invalidation(ServerState& s, trace::Version v);
  void on_fetch_response(ServerState& s, trace::Version v);
  void begin_fetch(ServerState& s);
  void issue_fetch_request(ServerState& s);
  void arm_fetch_guard(ServerState& s, int attempt);
  void give_up_fetch(ServerState& s);
  /// Fails the requests of users waiting on a fetch that will not complete.
  void fail_waiting_users(ServerState& s);
  void switch_to_invalidation_mode(ServerState& s);
  void switch_to_ttl_mode(ServerState& s);
  void rate_adapt_tick(ServerState& s);
  sim::SimTime current_ttl(const ServerState& s) const;

  // observability
  void bind_metrics();
  void bind_profiler();
  void fold_lane_stats();
  // Time series: column binding (constructor), one sample at
  // ts_->next_sample_time() covering events strictly before it, and the
  // end-of-run span fold. See the "Run" drivers for where samples
  // interleave with execution.
  void bind_timeseries();
  void sample_timeseries();
  void finish_timeseries();
  // Refreshes config_.shard_progress from the quiesced lanes (driver
  // thread, relaxed stores; host-only heartbeat data).
  void update_shard_progress();
  // Expands the bulk walk's run-length visit records into user-log and
  // poll-log rows; runs once from publish_run_stats(), no-op in legacy mode.
  void materialize_user_logs();

  // churn
  void schedule_next_failure();
  void fail_node(ServerState& s);
  void restore_node(ServerState& s);
  void apply_repair(const RepairReport& report);
  void ensure_polling(ServerState& s);

  // users — legacy per-visit path
  void start_users();
  void user_visit(UserState& u);
  /// One visit of `u` to `s` now (the per-visit path and the pump): counted,
  /// then unanswered, queued behind a fetch, or served.
  void serve_user(ServerState& s, UserState& u, bool redirected);
  /// Writes the user log and poll log rows of `u`'s request to `s`, made at
  /// `request_time` and ending now: served with the server's version, or
  /// failed. The bulk walk's rows come from materialize_user_logs().
  void record_observation(const ServerState& s, const UserState& u,
                          sim::SimTime request_time, bool redirected,
                          bool answered);

  // users — batched path (trace::VisitSchedule). A server's pending visits
  // are walked in bulk whenever its user-visible state is about to change
  // (catch_up_visits) and at epoch boundaries (visit_batch_event); while
  // the server is "blocked" (invalidation pending, visits must fetch) the
  // exact per-visit timing matters, so resync_visits switches the server
  // to a per-visit pump event at the precise next arrival.
  bool visit_pump_needed(const ServerState& s) const;
  void catch_up_visits(ServerState& s);
  void catch_up_visits_until(ServerState& s, sim::SimTime upto);
  void resync_visits(ServerState& s);
  void schedule_visit_event(ServerState& s);
  void visit_batch_event(ServerState& s);
  void pump_visit(ServerState& s);
  void horizon_server(ServerState& s);

  // run drivers
  void prepare_events();
  void run_sharded();

  /// Parent-side subscription bookkeeping for self-adaptive children
  /// (which children are in invalidation mode, and which were already sent
  /// the aggregated notice since subscribing).
  struct SubscriptionState {
    std::unordered_set<topology::NodeId> subscribers;
    std::unordered_set<topology::NodeId> notified;
  };
  SubscriptionState& subs_of(topology::NodeId node);

  sim::Simulator* sim_;
  const topology::NodeRegistry* nodes_;
  const trace::UpdateTrace* updates_;  // shifted by trace_offset_s
  std::unique_ptr<trace::UpdateTrace> shifted_updates_;
  EngineConfig config_;
  util::Rng rng_;
  std::unique_ptr<fault::Injector> injector_;
  Infrastructure infra_;
  net::LatencyModel latency_;
  net::TrafficMeter meter_;  // fold target; lanes meter during the run
  std::unique_ptr<cdn::Provider> provider_;
  std::unique_ptr<cdn::DnsSystem> dns_;
  net::Uplink provider_uplink_;
  net::Uplink* shared_provider_uplink_ = nullptr;
  std::vector<std::unique_ptr<ServerState>> servers_;
  /// Flat per-server version table (index = server id). Single-writer under
  /// sharding: only the owning lane writes a server's slot.
  std::vector<trace::Version> versions_;
  /// Per-node child lists partitioned by delivery role (index = node id +
  /// 1): `push` holds kPush children and `notice` the notice-receiving ones
  /// (kInvalidation always sent; self-/rate-adaptive gated on subscription),
  /// both preserving children_of order so send sequences are unchanged.
  /// Rebuilt by rebuild_child_lists(); read-only during the run.
  struct ChildLists {
    std::vector<topology::NodeId> push;
    struct Notice {
      topology::NodeId child;
      bool gated;  // subscription-gated (self-/rate-adaptive child)
    };
    std::vector<Notice> notice;
  };
  std::vector<ChildLists> child_lists_;
  /// Per-node topic pair (index = node id + 1); empty for unicast
  /// infrastructures (pubsub_active_ false — the legacy loops run).
  std::vector<NodeTopics> topics_;
  bool pubsub_active_ = false;
  pubsub::FlowController flow_{0};
  /// Bumped by rebuild_topics(); stale confirmations are dropped.
  std::uint64_t pubsub_generation_ = 0;
  std::vector<std::unique_ptr<UserState>> users_;
  std::unique_ptr<cdn::UserPopulationLog> user_logs_;
  std::vector<trace::AbsenceSchedule> absences_;
  SubscriptionState provider_subs_;
  trace::PollLog poll_log_;
  sim::SimTime end_time_ = 0;
  std::size_t failures_injected_ = 0;
  bool ran_ = false;

  // Execution mode (resolved once in the constructor).
  bool visit_batching_ = false;
  bool sharded_ = false;
  std::unique_ptr<trace::VisitSchedule> visit_plan_;
  std::unique_ptr<sim::Simulator[]> lane_sims_;  // sharded lanes only
  std::vector<Lane> lanes_;                 // exactly 1 when !sharded_
  std::vector<std::uint32_t> lane_of_;      // node id + 1 -> lane index
  std::unique_ptr<sim::ShardMergeQueue> merge_;
  // Sharded only: per-node run-phase RNGs / injectors (index node id + 1)
  // replace the engine-global rng_/injector_, and per-node emission
  // counters give merge messages their deterministic sort key.
  std::vector<util::Rng> node_rngs_;
  std::vector<std::unique_ptr<fault::Injector>> node_injectors_;
  std::vector<std::uint64_t> node_send_seq_;

  // Observability. The registry is engine-owned (nothing shared between
  // batch jobs). Counters accumulate in LaneCounters and per-server
  // histograms during the run; fold_lane_stats() moves them into the
  // registry (idempotent, deterministic order).
  obs::MetricsRegistry metrics_;
  obs::TraceRecorder trace_;
  bool stats_folded_ = false;

  // Time-resolved telemetry (ts_ null unless config.timeseries is bound;
  // the disabled hot-path residue is one null-check). Column ids are
  // resolved once in bind_timeseries(); sample_timeseries() stages into
  // them. ts_published_cursor_ counts trace updates with publish time
  // strictly before the current sample point.
  obs::TimeSeries* ts_ = nullptr;
  struct TsColumns {
    obs::SeriesId updates_published = 0;
    obs::SeriesId stale_replicas = 0;
    obs::SeriesId inflight_updates = 0;
    std::array<obs::SeriesId, kUpdateMethodCount> open_windows{};
    std::array<obs::SeriesId, kUpdateMethodCount> acquired{};
    std::array<obs::SeriesId, kUpdateMethodCount> polls{};
    std::array<obs::SeriesId, kUpdateMethodCount> fetches{};
    std::array<obs::SeriesId, kUpdateMethodCount> invalidations{};
    obs::SeriesId mode_switches = 0;
    obs::SeriesId visits = 0;
    obs::SeriesId visits_unanswered = 0;
    obs::SeriesId fault_dropped = 0;
    obs::SeriesId fault_partition_dropped = 0;
    obs::SeriesId fault_duplicated = 0;
    obs::SeriesId fault_brownouts = 0;
    obs::SeriesId reliable_retries = 0;
    obs::SeriesId reliable_give_ups = 0;
    obs::SeriesId pubsub_live = 0;
    obs::SeriesId pubsub_suppressed = 0;
    obs::SeriesId pubsub_catch_up_messages = 0;
    obs::SeriesId pubsub_catch_up_reads = 0;
    obs::SeriesId pubsub_skipped_ahead = 0;
    obs::SeriesId pubsub_lagging = 0;
    std::array<obs::SeriesId, net::kMessageKindCount> messages{};
    obs::SeriesId uplink_backlog = 0;
    obs::SeriesId uplink_brownout = 0;
  };
  TsColumns ts_cols_;
  trace::Version ts_published_cursor_ = 0;
  std::uint64_t ts_barrier_wait_ns_ = 0;  // host-only, sharded drivers

  // Dispatch/phase profiler: slots interned once in bind_profiler(), so a
  // phase entry costs one null-check plus (when enabled) one table walk.
  // event_profiler_ is profiler_ for classic engines and null for sharded
  // ones (event handlers run on worker threads; the Profiler is
  // single-threaded and stays with the driver).
  obs::Profiler* profiler_ = nullptr;
  obs::Profiler* event_profiler_ = nullptr;
  std::vector<obs::ProfileSlot> tag_slots_;
  obs::ProfileSlot ps_send_ = 0;
  obs::ProfileSlot ps_version_ = 0;
  obs::ProfileSlot ps_timer_ = 0;
  obs::ProfileSlot ps_poll_ = 0;
  obs::ProfileSlot ps_fetch_ = 0;
  obs::ProfileSlot ps_invalidate_ = 0;
  obs::ProfileSlot ps_push_ = 0;
  obs::ProfileSlot ps_mode_switch_ = 0;
  obs::ProfileSlot ps_tree_build_ = 0;
  obs::ProfileSlot ps_repair_ = 0;
  obs::ProfileSlot ps_shard_merge_ = 0;
};

}  // namespace cdnsim::consistency
