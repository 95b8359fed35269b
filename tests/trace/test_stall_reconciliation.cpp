// The acceptance gate for the StallCause taxonomy on EVERY cell of the
// paper's Fig. 4 matrix (all 25 Table II kernels x {LRR, GTO, TL, PRO} on
// the GTX480 config). The SM counts causes only and the legacy
// idle/scoreboard/pipeline counts are derived from them
// (SmStats.DerivesLegacyCountsFromCauses), so what is pinned is the fine
// split itself: an FNV-1a digest of every cell's per-SM cause_cycles,
// recorded with the stall-attribution trace sink that computed the causes
// before the SM counted them.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/fingerprint.hpp"
#include "runner/matrix.hpp"
#include "runner/runner.hpp"

namespace prosim {
namespace {

// fig4_matrix() order: kernel-major, LRR/GTO/TL/PRO within a kernel.
constexpr std::uint64_t kCauseDigests[] = {
    0x54cd3da5c00d9b1aull, 0x18ac8b42592a16c2ull, 0x26298a692b53974bull,
    0x386be908e1f3fbe5ull, 0xa374cf9f663d104bull, 0x72cf6e401e31ef63ull,
    0x1d8c1021ffffe891ull, 0xac6c5f25961c81a8ull, 0x4b85baadf78c643dull,
    0x6e7e61d47e667d11ull, 0xe55b2d30422c8e2dull, 0xbf291d9fe31c1c50ull,
    0x1fb0b6af6e0b4f6eull, 0xc845150464029ddfull, 0xccd6b9a236a19fa6ull,
    0xa4e928960f0850d2ull, 0x0b121e77127ec638ull, 0x4b0b3170f5eef31cull,
    0x4324001ca8a6712full, 0x17fe4551035cfa78ull, 0x766ce98d8fb7ad97ull,
    0xf13acbe96268389eull, 0x8e213c7d196ebf50ull, 0x3363dca6bbe5abdcull,
    0x58d294e4182eb42eull, 0xb2b02d08d8dd2470ull, 0xe736ba6e715a7d2dull,
    0x7f25f2191dbfdc38ull, 0x39e7327e32c10af3ull, 0xa6fc6d23f86d16e5ull,
    0xb27a78fa5df0df23ull, 0xdb6ed8a64016462dull, 0x11ff96f0577b04aaull,
    0x243f78a3fecb050aull, 0xc7b7cdf4fddcd281ull, 0x0d243f172f992cbbull,
    0x1c1b75c379af1088ull, 0x6ddbd17eedd6630bull, 0xe0a5a8feab7fe33eull,
    0xbc14f7e570b2512bull, 0x4aa825f83f232093ull, 0xe2311afbe3ee3749ull,
    0x1d054e62877e317dull, 0x64f10149ced821b9ull, 0xb5b312d393ccba69ull,
    0xf0a228486922265eull, 0x9e9c903d9180254aull, 0xdc95381ac314a921ull,
    0x4ac3ef12ec684186ull, 0x63cbaf302ba0b251ull, 0xddf38bc57317185full,
    0x913d1e138d320babull, 0x0a2d0b0dfbdcc18bull, 0x4a9fcc63cd826f29ull,
    0xdea9890536ad0404ull, 0x692112652ed8543aull, 0xa8f0fb1e3f2b2b95ull,
    0x0e6ad0cf588d5384ull, 0x5c8c41a7e8e6ede6ull, 0xde07f6fa148be6f0ull,
    0x693466e059789c5full, 0xdbe26788f6d047c2ull, 0x05edc9e51d6c764bull,
    0xc091965498ac5c15ull, 0x6e20bf348ed9b1d0ull, 0x2704f466a14ba53aull,
    0x18440ae6802ff107ull, 0xe728abbd403de6ebull, 0x38506aa7a268c96bull,
    0xdc119adaf2c455fdull, 0x346e146fcd688281ull, 0x390db391d64229c7ull,
    0x486589c4968e2d2cull, 0x9a9a1a74a38edb41ull, 0x9ab6781125d61a6bull,
    0x61606bb4086682a2ull, 0x202271651ee69020ull, 0x4d72793c88f68ecbull,
    0x202271651ee69020ull, 0x26114de9b40df695ull, 0x9f15ae3bb46a460aull,
    0x9f46930ce4f14d4eull, 0xdea66c977d3aa185ull, 0xd946469811f13a59ull,
    0x37cec0805ef9ba14ull, 0x14a497dfbc5b264cull, 0xeabb2f923eae7f5bull,
    0x2d74682c1313e867ull, 0xc9aff5c275222febull, 0x9446ce75d6aa358eull,
    0xe96570a16f213a26ull, 0x080f8939d40c0cb8ull, 0x2684b2d2eead7597ull,
    0x56fc15b5c0f6f055ull, 0x5099136afe129cccull, 0x12fd0edf62941c32ull,
    0xbd6de13ab1c5493cull, 0x28a5bf665a5ffdc7ull, 0x36f63323dbf95083ull,
    0x92c824a2570f5310ull,
};

TEST(StallReconciliation, EveryFig4CellReconcilesExactly) {
  runner::SweepOptions opts;  // no cache: every cell simulates
  const runner::SweepReport report =
      runner::run_sweep(runner::fig4_matrix(), opts);

  ASSERT_EQ(report.cells.size(), std::size(kCauseDigests));
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    const runner::SweepCell& cell = report.cells[i];
    ASSERT_TRUE(cell.ok()) << cell.label;
    const GpuResult& r = *cell.result;

    Fingerprint fp;
    for (const SmStats& s : r.per_sm) {
      for (const std::uint64_t n : s.cause_cycles) fp.add(n);
    }
    EXPECT_EQ(fp.hash(), kCauseDigests[i])
        << cell.label << ": stall causes changed (actual 0x" << fp.hex()
        << ")";
  }
}

}  // namespace
}  // namespace prosim
