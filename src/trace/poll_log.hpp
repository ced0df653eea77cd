// Poll logs: what the paper's PlanetLab crawlers recorded.
//
// One Observation per poll of one content server: when it was polled, which
// content snapshot (version) it served, or that it did not answer (absence).
// The whole Section 3 analysis pipeline consumes PollLogs; the simulator's
// observers produce them, and they round-trip through CSV so analyses can be
// re-run offline.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/traffic_meter.hpp"  // NodeId
#include "sim/time.hpp"
#include "trace/update_trace.hpp"

namespace cdnsim::trace {

struct Observation {
  net::NodeId server = 0;
  sim::SimTime time = 0;   // corrected GMT time of the snapshot
  Version version = 0;     // snapshot id served
  bool answered = true;    // false: poll got no response (server absent)
};

class PollLog {
 public:
  PollLog() = default;
  /// Adopts rows that are already in log order.
  explicit PollLog(std::vector<Observation> observations)
      : observations_(std::move(observations)) {}

  void add(const Observation& obs) { observations_.push_back(obs); }
  void reserve(std::size_t n) { observations_.reserve(n); }

  const std::vector<Observation>& observations() const { return observations_; }
  std::size_t size() const { return observations_.size(); }
  bool empty() const { return observations_.empty(); }

  /// Observations of one server, in log order. A simulator-produced log is
  /// in time order whichever visit path wrote it (the batched walk's rows
  /// are sorted in after the run; analysis::extract_absences checks the
  /// order). One full scan and copy per call: group by server once for
  /// many servers.
  std::vector<Observation> for_server(net::NodeId server) const;

  /// Distinct server ids present in the log.
  std::vector<net::NodeId> servers() const;

  /// Restrict to a time window [start, end).
  PollLog window(sim::SimTime start, sim::SimTime end) const;

  void save_csv(const std::string& path) const;
  static PollLog load_csv(const std::string& path);

 private:
  std::vector<Observation> observations_;
};

}  // namespace cdnsim::trace
