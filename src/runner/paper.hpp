// The paper report: every table and figure of the paper's evaluation
// (Tables I-IV, Figures 1, 2, 4 and 5), the PRO ablations and the three
// extension studies, printed from one deduplicated cell list
// (`prosim-sweep --paper`, DESIGN.md §3).
//
// The report never simulates. paper_cells() lists every (workload, config)
// cell it reads; the caller runs them (run_sweep, with or without a result
// cache) and hands print_paper_report() a lookup by cache key. A key the
// lookup lacks is a SimError, so the list and the printers cannot drift
// apart silently.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "runner/runner.hpp"

namespace prosim::runner {

struct PaperCells {
  std::vector<SweepJob> jobs;     ///< distinct cells, in first-use order
  std::vector<std::string> keys;  ///< keys[i] == jobs[i].cache_key()
};

/// Every cell the report reads, each once: every Table II kernel under all
/// seven schedulers (which holds the Fig. 4 matrix), the Table IV trace,
/// the PRO ablations and the memory-substrate variants.
PaperCells paper_cells();

/// The result stored under a cache key, or nullptr when there is none.
using PaperLookup = std::function<const GpuResult*(const std::string& key)>;

/// Prints every section, each under a "=== <name> ===" line: fig4 (with
/// Tables I and II), fig1, fig2, fig5, table3, table4, ablation,
/// related_work, motivation, memory. Throws SimException when `lookup`
/// has no result for a cell the report reads.
void print_paper_report(std::ostream& os, const PaperLookup& lookup);

}  // namespace prosim::runner
