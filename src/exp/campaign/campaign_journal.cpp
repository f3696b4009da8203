#include "exp/campaign/campaign_journal.hpp"

#include <fstream>
#include <stdexcept>

#include "robust/line_codec.hpp"

namespace pftk::exp::campaign {

namespace {

void append_fault_stats(std::string& out, const sim::FaultStats& stats) {
  out += '[';
  const std::uint64_t fields[] = {stats.offered,    stats.dropped_blackout,
                                  stats.dropped_loss, stats.duplicated,
                                  stats.reordered,  stats.delayed};
  for (std::size_t i = 0; i < 6; ++i) {
    if (i > 0) {
      out += ',';
    }
    out += std::to_string(fields[i]);
  }
  out += ']';
}

sim::FaultStats fault_stats_from_json(const robust::JsonLine& json, std::string_view key) {
  const std::vector<std::uint64_t> fields = json.integers<std::uint64_t>(key);
  if (fields.size() != 6) {
    throw std::invalid_argument("journal entry: fault-stats array needs 6 fields");
  }
  sim::FaultStats stats;
  stats.offered = fields[0];
  stats.dropped_blackout = fields[1];
  stats.dropped_loss = fields[2];
  stats.duplicated = fields[3];
  stats.reordered = fields[4];
  stats.delayed = fields[5];
  return stats;
}

}  // namespace

std::string JournalEntry::to_json() const {
  std::string out = "{\"item\":" + std::to_string(index) + ",\"key\":\"" +
                    robust::json_escape(key) + "\",\"status\":";
  out += ok ? "\"ok\"" : "\"failed\"";
  out += ",\"attempts\":" + std::to_string(attempts);
  if (ok) {
    out += ",\"packets\":" + std::to_string(metrics.packets_sent);
    out += ",\"send_rate\":" + robust::format_double(metrics.send_rate);
    out += ",\"p\":" + robust::format_double(metrics.p);
    out += ",\"rtt\":" + robust::format_double(metrics.rtt);
    out += ",\"t0\":" + robust::format_double(metrics.t0);
    out += ",\"predicted\":" + robust::format_double(metrics.predicted);
    out += ",\"ff\":";
    append_fault_stats(out, metrics.forward_faults);
    out += ",\"rf\":";
    append_fault_stats(out, metrics.reverse_faults);
  } else {
    out += ",\"class\":\"";
    out += failure_class_name(failure_class);
    out += "\",\"kind\":\"";
    out += failure_kind_name(failure_kind);
    out += "\",\"error\":\"" + robust::json_escape(error) + '"';
  }
  out += '}';
  return out;
}

JournalEntry JournalEntry::from_json(const std::string& line) {
  const robust::JsonLine json(line);
  JournalEntry entry;
  entry.index = json.integer<std::size_t>("item");
  entry.key = json.string("key");
  const std::string& status = json.string("status");
  if (entry.key.empty() || (status != "ok" && status != "failed")) {
    throw std::invalid_argument("journal entry: empty key or status not ok|failed");
  }
  entry.ok = status == "ok";
  entry.attempts = json.integer<int>("attempts");
  if (entry.ok) {
    entry.metrics.packets_sent = json.integer<std::uint64_t>("packets");
    entry.metrics.send_rate = json.number("send_rate");
    entry.metrics.p = json.number("p");
    entry.metrics.rtt = json.number("rtt");
    entry.metrics.t0 = json.number("t0");
    entry.metrics.predicted = json.number("predicted");
    entry.metrics.forward_faults = fault_stats_from_json(json, "ff");
    entry.metrics.reverse_faults = fault_stats_from_json(json, "rf");
  } else {
    entry.failure_class = json.string("class") == "transient" ? FailureClass::kTransient
                                                              : FailureClass::kPermanent;
    entry.failure_kind = failure_kind_from_name(json.string("kind"));
    entry.error = json.string("error");
  }
  return entry;
}

JournalReplay replay_journal(std::istream& in) {
  JournalReplay replay;
  std::string line;
  while (std::getline(in, line)) {
    const bool complete = !in.eof();  // getline hit '\n', not end-of-file
    if (line.empty()) {
      replay.valid_bytes += complete ? 1 : 0;
      continue;
    }
    JournalEntry entry;
    try {
      entry = JournalEntry::from_json(line);
    } catch (const std::invalid_argument&) {
      // A malformed line can only be the torn tail of a killed append;
      // everything before it is intact. Drop it and resume from here.
      replay.truncated_tail = true;
      break;
    }
    if (!complete) {
      // Parsed but missing its newline: the flush may not have covered
      // the full line. Treat as torn; the item will simply re-run.
      replay.truncated_tail = true;
      break;
    }
    if (entry.index != replay.entries.size()) {
      throw std::invalid_argument(
          "journal out of order: line " + std::to_string(replay.entries.size()) +
          " has item index " + std::to_string(entry.index));
    }
    replay.valid_bytes += line.size() + 1;
    replay.entries.push_back(std::move(entry));
  }
  return replay;
}

JournalReplay replay_journal_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return {};
  }
  return replay_journal(in);
}

}  // namespace pftk::exp::campaign
