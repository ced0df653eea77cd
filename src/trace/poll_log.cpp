#include "trace/poll_log.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <set>
#include <sstream>

#include "util/csv.hpp"
#include "util/error.hpp"

namespace cdnsim::trace {

namespace {

/// Parses one CSV cell as a whole: empty cells, non-numeric text and
/// trailing garbage ("12abc") are all rejected with the cell's file
/// position, instead of std::sto*'s context-free throw / silent truncation.
/// Data row `row` is file line row + 2 (line 1 is the header).
template <typename T>
T parse_cell(const std::string& cell, const char* field,
             const std::string& path, std::size_t row, std::size_t column) {
  T value{};
  const auto [ptr, ec] =
      std::from_chars(cell.data(), cell.data() + cell.size(), value);
  if (ec != std::errc{} || ptr != cell.data() + cell.size()) {
    throw Error("malformed " + std::string(field) + " value \"" + cell +
                "\" in " + path + " (row " + std::to_string(row + 2) +
                ", column " + std::to_string(column + 1) + ")");
  }
  return value;
}

}  // namespace

std::vector<Observation> PollLog::for_server(net::NodeId server) const {
  std::vector<Observation> out;
  for (const auto& obs : observations_) {
    if (obs.server == server) out.push_back(obs);
  }
  return out;
}

std::vector<net::NodeId> PollLog::servers() const {
  std::set<net::NodeId> ids;
  for (const auto& obs : observations_) ids.insert(obs.server);
  return {ids.begin(), ids.end()};
}

PollLog PollLog::window(sim::SimTime start, sim::SimTime end) const {
  PollLog out;
  for (const auto& obs : observations_) {
    if (obs.time >= start && obs.time < end) out.add(obs);
  }
  return out;
}

void PollLog::save_csv(const std::string& path) const {
  util::CsvTable table;
  table.header = {"server", "time_s", "version", "answered"};
  table.rows.reserve(observations_.size());
  for (const auto& obs : observations_) {
    std::ostringstream time_os;
    time_os.precision(9);
    time_os << obs.time;
    table.rows.push_back({std::to_string(obs.server), time_os.str(),
                          std::to_string(obs.version),
                          obs.answered ? "1" : "0"});
  }
  util::write_csv_file(path, table);
}

PollLog PollLog::load_csv(const std::string& path) {
  const auto table = util::read_csv_file(path);
  CDNSIM_EXPECTS(table.header.size() == 4 && table.header[0] == "server",
                 "unexpected poll-log CSV header");
  PollLog log;
  log.reserve(table.rows.size());
  for (std::size_t i = 0; i < table.rows.size(); ++i) {
    const auto& row = table.rows[i];
    if (row.size() != 4) {
      throw Error("malformed poll-log CSV row in " + path + " (row " +
                  std::to_string(i + 2) + "): expected 4 fields, got " +
                  std::to_string(row.size()));
    }
    Observation obs;
    obs.server = parse_cell<net::NodeId>(row[0], "server", path, i, 0);
    obs.time = parse_cell<double>(row[1], "time_s", path, i, 1);
    if (!std::isfinite(obs.time)) {
      // from_chars accepts "nan" and "inf"; no poll happens at either, and
      // a NaN time would defeat every time ordering in the analysis.
      throw Error("malformed time_s value \"" + row[1] + "\" in " + path +
                  " (row " + std::to_string(i + 2) +
                  ", column 2): expected a finite time");
    }
    obs.version = parse_cell<std::int64_t>(row[2], "version", path, i, 2);
    const int answered = parse_cell<int>(row[3], "answered", path, i, 3);
    if (answered != 0 && answered != 1) {
      throw Error("malformed answered value \"" + row[3] + "\" in " + path +
                  " (row " + std::to_string(i + 2) +
                  ", column 4): expected 0 or 1");
    }
    obs.answered = answered == 1;
    log.add(obs);
  }
  return log;
}

}  // namespace cdnsim::trace
