// End-user observation logs.
//
// Each end-user's visits are recorded as UserObservation rows; the analysis
// module derives from them every user-perspective metric of Sections 3.3 and
// 5.3: redirection percentage, continuous (in)consistency times, first-seen
// inconsistency per version, and the fraction of observations that show
// content older than something the user already saw.
#pragma once

#include <vector>

#include "cdn/dns.hpp"
#include "trace/update_trace.hpp"

namespace cdnsim::cdn {

struct UserObservation {
  sim::SimTime request_time = 0;
  sim::SimTime serve_time = 0;  // >= request_time (fetch-on-miss delays it)
  topology::NodeId server = 0;
  trace::Version version = 0;
  bool redirected = false;  // served by a different server than last visit
  bool answered = true;     // server was up
};

class UserLog {
 public:
  void add(const UserObservation& obs) { observations_.push_back(obs); }
  const std::vector<UserObservation>& observations() const { return observations_; }
  std::size_t size() const { return observations_.size(); }
  bool empty() const { return observations_.empty(); }

  /// Moves the rows out, leaving the log empty. A batched engine buffers a
  /// user's directly served requests here during the run, then takes them
  /// to merge with the walked visits by request time; the merge re-adds
  /// the rows only when the engine records user logs.
  std::vector<UserObservation> take() {
    std::vector<UserObservation> out = std::move(observations_);
    observations_.clear();
    return out;
  }

 private:
  std::vector<UserObservation> observations_;
};

/// Logs of a whole user population, indexed by UserId.
class UserPopulationLog {
 public:
  explicit UserPopulationLog(std::size_t user_count) : logs_(user_count) {}

  UserLog& log(UserId u);
  const UserLog& log(UserId u) const;
  std::size_t user_count() const { return logs_.size(); }

 private:
  std::vector<UserLog> logs_;
};

}  // namespace cdnsim::cdn
