// The paper report's cell list and its printers must agree: the printers
// read exactly the listed cells, and the list holds each cell once. No
// simulation runs: the printers read one fixed result for every key.
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "runner/matrix.hpp"
#include "runner/paper.hpp"

namespace prosim::runner {
namespace {

/// Computed once: keying the list hashes every workload's input image.
const PaperCells& cells() {
  static const PaperCells cells = paper_cells();
  return cells;
}

TEST(Paper, CellListIsDistinctAndHoldsFig4) {
  ASSERT_EQ(cells().jobs.size(), cells().keys.size());
  const std::set<std::string> keys(cells().keys.begin(), cells().keys.end());
  EXPECT_EQ(keys.size(), cells().keys.size()) << "duplicate cache keys";
  EXPECT_EQ(cells().keys.front(), cells().jobs.front().cache_key());

  // Every listed workload comes from the registry, so a kernel name and a
  // config fingerprint identify a cell without hashing its inputs again.
  std::set<std::pair<std::string, std::uint64_t>> listed;
  for (const SweepJob& job : cells().jobs) {
    listed.emplace(job.workload.kernel, job.config.fingerprint());
  }
  for (const SweepJob& job : fig4_matrix()) {
    EXPECT_TRUE(listed.count({job.workload.kernel, job.config.fingerprint()}))
        << job.label;
  }
}

TEST(Paper, ReportReadsExactlyTheListedCells) {
  // Nonzero stalls keep the geomeans defined; one SM timeline and two
  // TB-order samples let Fig. 2 and Table IV print their full tables.
  GpuResult result;
  result.cycles = 1000;
  result.totals.idle_stalls = 10;
  result.totals.scoreboard_stalls = 20;
  result.totals.pipeline_stalls = 30;
  result.timelines = {{{0, 0, 400}, {1, 10, 600}}};
  result.tb_order_sm0 = {{1000, {0, 1}}, {2000, {1, 0}}};
  std::set<std::string> asked;
  std::ostringstream out;
  print_paper_report(out, [&](const std::string& key) {
    asked.insert(key);
    return &result;
  });
  EXPECT_EQ(asked,
            std::set<std::string>(cells().keys.begin(), cells().keys.end()));
  for (const char* section :
       {"fig4", "fig1", "fig2", "fig5", "table3", "table4", "ablation",
        "related_work", "motivation", "memory"}) {
    EXPECT_NE(out.str().find("=== " + std::string(section) + " ===\n"),
              std::string::npos)
        << section;
  }
}

TEST(Paper, MissingCellIsAnError) {
  std::ostringstream out;
  EXPECT_THROW(print_paper_report(out, [](const std::string&) {
                 return static_cast<const GpuResult*>(nullptr);
               }),
               SimException);
}

}  // namespace
}  // namespace prosim::runner
