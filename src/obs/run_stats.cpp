#include "obs/run_stats.h"

#include <ostream>

#include "obs/json.h"
#include "util/table.h"

namespace wildenergy::obs {

void StageStats::merge_from(const StageStats& other) {
  if (name.empty()) name = other.name;
  self_ms += other.self_ms;
  packets += other.packets;
  transitions += other.transitions;
  bytes += other.bytes;
  batch_latency_us.merge_from(other.batch_latency_us);
}

void RunStats::print(std::ostream& os) const {
  os << "-- run stats --\n"
     << "wall time:     " << fmt(wall_ms, 1) << " ms";
  if (num_threads > 1) os << " (" << num_threads << " worker threads)";
  os << "\n";
  if (capture_ms > 0.0) {
    os << "capture:       " << fmt(capture_ms, 1)
       << " ms of the wall time (before any scenario runs)";
    if (capture_parse_ms > 0.0) {
      os << "; parse workers busy " << fmt(capture_parse_ms, 1) << " ms";
    }
    if (capture_seal_ms > 0.0) {
      os << "; segment seals busy " << fmt(capture_seal_ms, 1) << " ms, waited on "
         << fmt(capture_wait_ms, 1) << " ms";
    }
    if (capture_peak_rss_bytes > 0) {
      os << "; peak RSS at its end " << fmt_bytes(static_cast<double>(capture_peak_rss_bytes));
    }
    os << "\n";
  }
  os << "throughput:    " << fmt_sig(packets_per_sec()) << " packets/s, "
     << fmt_bytes(bytes_per_sec()) << "/s\n"
     << "stream:        " << users << " users, " << packets << " packets, " << fmt_bytes(static_cast<double>(bytes))
     << ", " << transitions << " transitions\n"
     << "off-interface: " << off_interface_packets << " packets ("
     << fmt_bytes(static_cast<double>(off_interface_bytes)) << ") dropped before attribution\n"
     << "energy:        " << fmt(joules / 1e3, 1) << " kJ attributed\n";

  os << "attribution:   " << tail_attributions << " tail attributions";
  if (proportional_splits > 0) os << " (" << proportional_splits << " proportional splits)";
  os << ", " << promotion_segments << " promotions, " << transfer_segments << " transfers, "
     << tail_segments << " tail segments (" << drx_segments << " DRX), " << idle_segments
     << " idle\n";
  os << "radio:         " << radio_bursts << " bursts (" << radio_bursts_queued
     << " queued behind airtime), " << radio_promotions << " promotions, " << radio_repromotions
     << " re-promotions\n";

  if (memory.tracked_bytes() > 0 || memory.peak_rss_bytes > 0) {
    os << "memory:        ledger " << fmt_bytes(static_cast<double>(memory.ledger.resident_bytes))
       << ", analyses " << fmt_bytes(static_cast<double>(memory.analyses.resident_bytes));
    if (memory.store.resident_bytes > 0) {
      os << ", trace store " << fmt_bytes(static_cast<double>(memory.store.resident_bytes));
    }
    if (memory.store.spilled_bytes > 0) {
      os << ", spilled " << fmt_bytes(static_cast<double>(memory.store.spilled_bytes))
         << " on disk";
    }
    if (memory.shards.resident_bytes > 0) {
      os << ", shard window " << fmt_bytes(static_cast<double>(memory.shards.resident_bytes));
    }
    // The sinks' own spilled bytes are their sections of these images.
    if (memory.accounts.total_bytes() > 0) {
      os << ", account images " << fmt_bytes(static_cast<double>(memory.accounts.spilled_bytes))
         << " sealed (" << fmt_bytes(static_cast<double>(memory.accounts.resident_bytes))
         << " in memory)";
    }
    os << "; peak RSS " << fmt_bytes(static_cast<double>(memory.peak_rss_bytes));
    if (memory.rss_anon_bytes + memory.rss_file_bytes > 0) {
      os << " (at end: anon " << fmt_bytes(static_cast<double>(memory.rss_anon_bytes))
         << ", file " << fmt_bytes(static_cast<double>(memory.rss_file_bytes)) << ")";
    }
    os << "\n";
  }

  if (shard_retries > 0 || !failed_users.empty()) {
    os << "resilience:    " << shard_retries << " shard retr" << (shard_retries == 1 ? "y" : "ies")
       << ", " << failed_users.size() << " user(s) skipped";
    if (!failed_users.empty()) {
      os << " (";
      for (std::size_t i = 0; i < failed_users.size(); ++i) {
        if (i > 0) os << ", ";
        os << failed_users[i];
      }
      os << ")";
    }
    os << "\n";
  }

  if (checkpoints_written > 0 || checkpoint_write_failures > 0 || resumed_users > 0 ||
      recovered_from_seq > 0) {
    os << "checkpoints:   " << checkpoints_written << " written ("
       << fmt_bytes(static_cast<double>(checkpoint_bytes)) << ")";
    if (checkpoint_write_failures > 0) {
      os << ", " << checkpoint_write_failures << " write failure(s)";
    }
    if (resumed_users > 0) os << "; resumed past " << resumed_users << " completed user(s)";
    if (recovered_from_seq > 0) {
      os << "; recovered from seq " << recovered_from_seq << " (newer checkpoints damaged)";
    }
    os << "\n";
  }

  if (!shards.empty()) {
    os << "\n-- per-shard (user) breakdown --\n";
    TextTable shard_table({"user", "worker", "wall (ms)", "packets", "joules", "attempts"});
    for (const auto& s : shards) {
      shard_table.add_row({std::to_string(s.user), std::to_string(s.worker), fmt(s.wall_ms, 1),
                           std::to_string(s.packets), fmt(s.joules, 1),
                           s.skipped ? "skipped: " + s.status.message()
                                     : std::to_string(s.attempts)});
    }
    shard_table.print(os);
    if (serial_fallback_sinks > 0) {
      os << "(" << serial_fallback_sinks
         << " non-shardable sink(s) fed by an extra serial replay pass)\n";
    }
  }

  if (!timed || stages.empty()) {
    os << "(per-stage breakdown not collected; enable stage stats / --stats)\n";
    return;
  }

  double accounted = 0.0;
  bool any_latency = false;
  for (const auto& s : stages) {
    accounted += s.self_ms;
    any_latency = any_latency || s.batch_latency_us.count() > 0;
  }

  os << "\n-- per-stage self time --\n";
  std::vector<std::string> headers{"stage", "self (ms)", "% wall", "packets", "transitions",
                                   "Mpkt/s"};
  if (any_latency) {
    headers.insert(headers.end(), {"batches", "p50 (us)", "p95 (us)", "p99 (us)"});
  }
  TextTable table(headers);
  for (const auto& s : stages) {
    std::vector<std::string> row{s.name, fmt(s.self_ms, 1),
                                 fmt(wall_ms > 0.0 ? 100.0 * s.self_ms / wall_ms : 0.0, 1),
                                 std::to_string(s.packets), std::to_string(s.transitions),
                                 fmt(s.packets_per_sec() / 1e6, 2)};
    if (any_latency) {
      const Histogram& h = s.batch_latency_us;
      row.push_back(std::to_string(h.count()));
      row.push_back(fmt(h.percentile(0.50), 1));
      row.push_back(fmt(h.percentile(0.95), 1));
      row.push_back(fmt(h.percentile(0.99), 1));
    }
    table.add_row(row);
  }
  table.print(os);
  if (num_threads > 1) {
    os << "(stage self times are summed across " << shards.size()
       << " shard chains: " << fmt(accounted, 1) << " ms of CPU over " << fmt(wall_ms, 1)
       << " ms wall)\n";
  } else {
    os << "(self times sum to " << fmt(accounted, 1) << " ms of " << fmt(wall_ms, 1)
       << " ms wall)\n";
  }
}

void RunStats::write_json(JsonWriter& w) const {
  w.begin_object();
  w.kv("schema", "wildenergy.run_stats.v2");
  w.kv("wall_ms", wall_ms);
  w.kv("capture_ms", capture_ms);
  w.kv("capture_seal_ms", capture_seal_ms);
  w.kv("capture_wait_ms", capture_wait_ms);
  w.kv("capture_parse_ms", capture_parse_ms);
  w.kv("capture_peak_rss_bytes", capture_peak_rss_bytes);
  w.kv("num_threads", num_threads);
  w.kv("users", users);
  w.kv("packets", packets);
  w.kv("transitions", transitions);
  w.kv("bytes", bytes);
  w.kv("off_interface_packets", off_interface_packets);
  w.kv("off_interface_bytes", off_interface_bytes);
  w.kv("joules", joules);
  w.kv("packets_per_sec", packets_per_sec());

  w.key("attribution");
  w.begin_object();
  w.kv("tail_attributions", tail_attributions);
  w.kv("proportional_splits", proportional_splits);
  w.kv("promotion_segments", promotion_segments);
  w.kv("transfer_segments", transfer_segments);
  w.kv("tail_segments", tail_segments);
  w.kv("drx_segments", drx_segments);
  w.kv("idle_segments", idle_segments);
  w.end_object();

  w.key("radio");
  w.begin_object();
  w.kv("bursts", radio_bursts);
  w.kv("bursts_queued", radio_bursts_queued);
  w.kv("promotions", radio_promotions);
  w.kv("repromotions", radio_repromotions);
  w.end_object();

  w.key("memory");
  w.begin_object();
  w.kv("ledger_bytes", memory.ledger.resident_bytes);
  w.kv("ledger_spilled_bytes", memory.ledger.spilled_bytes);
  w.kv("analyses_bytes", memory.analyses.resident_bytes);
  w.kv("analyses_spilled_bytes", memory.analyses.spilled_bytes);
  w.kv("store_bytes", memory.store.resident_bytes);
  w.kv("store_spilled_bytes", memory.store.spilled_bytes);
  w.kv("account_bytes", memory.accounts.resident_bytes);
  w.kv("account_spilled_bytes", memory.accounts.spilled_bytes);
  w.kv("shard_window_bytes", memory.shards.resident_bytes);
  w.kv("tracked_bytes", memory.tracked_bytes());
  w.kv("peak_rss_bytes", memory.peak_rss_bytes);
  w.kv("rss_anon_bytes", memory.rss_anon_bytes);
  w.kv("rss_file_bytes", memory.rss_file_bytes);
  w.end_object();

  w.key("resilience");
  w.begin_object();
  w.kv("shard_retries", shard_retries);
  w.kv("serial_fallback_sinks", serial_fallback_sinks);
  w.key("failed_users");
  w.begin_array();
  for (const std::uint64_t u : failed_users) w.value(u);
  w.end_array();
  // Additive checkpoint/resume counters; schema stays v2.
  w.kv("checkpoints_written", checkpoints_written);
  w.kv("checkpoint_bytes", checkpoint_bytes);
  w.kv("checkpoint_write_failures", checkpoint_write_failures);
  w.kv("resumed_users", resumed_users);
  w.kv("recovered_from_seq", recovered_from_seq);
  w.end_object();

  w.kv("timed", timed);
  w.key("stages");
  w.begin_array();
  for (const auto& s : stages) {
    w.begin_object();
    w.kv("name", s.name);
    w.kv("self_ms", s.self_ms);
    w.kv("packets", s.packets);
    w.kv("transitions", s.transitions);
    w.kv("bytes", s.bytes);
    if (s.batch_latency_us.count() > 0) {
      w.key("batch_latency_us");
      s.batch_latency_us.write_json(w);
    }
    w.end_object();
  }
  w.end_array();

  w.key("shards");
  w.begin_array();
  for (const auto& s : shards) {
    w.begin_object();
    w.kv("user", s.user);
    w.kv("worker", s.worker);
    w.kv("wall_ms", s.wall_ms);
    w.kv("packets", s.packets);
    w.kv("bytes", s.bytes);
    w.kv("joules", s.joules);
    w.kv("attempts", s.attempts);
    w.kv("skipped", s.skipped);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

std::string RunStats::to_json() const {
  JsonWriter w;
  write_json(w);
  return w.str();
}

}  // namespace wildenergy::obs
