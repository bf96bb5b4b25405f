// Import and analyze an external trace (CSV) instead of the simulator.
//
//   $ ./example_import_trace < trace.csv
//   $ ./example_import_trace --selftest     # round-trips a generated study
//
// This is the adoption path for real data: anything that can produce
// (timestamp, user, app, bytes, direction, process state) rows — e.g. a
// tcpdump post-processor with /proc/<pid> state sampling — can reuse the
// whole attribution + analysis stack. Format: see trace/csv_io.h.
#include <fstream>
#include <iostream>
#include <sstream>

#include "analysis/figures.h"
#include "core/pipeline.h"
#include "energy/attributor.h"
#include "energy/ledger.h"
#include "radio/burst_machine.h"
#include "sim/generator.h"
#include "trace/csv_io.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace wildenergy;

  std::stringstream buffer;
  if (argc > 1 && std::string_view{argv[1]} == "--selftest") {
    // Produce a small raw study as CSV (no energy annotations), then treat
    // it as external input below.
    sim::StudyConfig config = sim::small_study(99);
    config.num_users = 3;
    config.num_days = 14;
    const sim::StudyGenerator generator{config};
    trace::CsvTraceWriter writer{buffer};
    generator.run(writer);
  } else {
    buffer << std::cin.rdbuf();
    if (buffer.str().empty()) {
      std::cerr << "no input; pipe a CSV trace in, or run with --selftest\n";
      return 2;
    }
  }

  // External trace -> LTE energy attribution -> ledger.
  energy::EnergyLedger ledger;
  energy::EnergyAttributor attributor{radio::make_lte_model, &ledger};
  const auto result = trace::read_csv_trace(buffer, attributor);
  if (!result.ok()) {
    std::cerr << "parse error: " << result.error() << "\n";
    return 1;
  }

  std::cout << "parsed " << result.records << " CSV lines\n"
            << "device energy: " << fmt(attributor.device_joules() / 1e3, 2) << " kJ"
            << "  (attributed " << fmt(attributor.attributed_joules() / 1e3, 2)
            << " kJ, idle baseline " << fmt(attributor.baseline_joules() / 1e3, 2) << " kJ)\n"
            << "tail share of attributed energy: "
            << fmt(100.0 * attributor.tail_joules() / attributor.attributed_joules(), 1)
            << "%\n\n";

  const auto overall = analysis::overall_state_breakdown(ledger);
  std::cout << "background share: " << fmt(100.0 * overall.background_fraction(), 1) << "%\n\n";

  TextTable table({"app id", "energy (J)", "data", "uJ/B"});
  for (const auto& e : analysis::top_consumers_by_energy(ledger, 8)) {
    table.add_row({std::to_string(e.app), fmt(e.joules, 1),
                   fmt_bytes(static_cast<double>(e.bytes)), fmt(e.micro_joules_per_byte(), 2)});
  }
  table.print(std::cout);
  return 0;
}
