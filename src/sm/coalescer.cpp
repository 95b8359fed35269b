#include "sm/coalescer.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/check.hpp"

namespace prosim {

namespace {

/// Writes the distinct values addrs[lane] >> shift of the active lanes into
/// v, ascending, and returns their count. Lanes usually ascend, and then
/// one pass that drops adjacent repeats is all it takes; otherwise values
/// spanning fewer than 4096 sort through a bitmap, wider ones by std::sort.
int sort_unique(const Addr* addrs, ActiveMask active, int shift, Addr* v) {
  int n = 0;
  bool ascending = true;
  Addr last = 0;
  for (; active != 0; active &= active - 1) {
    const Addr x = addrs[std::countr_zero(active)] >> shift;
    if (n > 0 && x == last) continue;
    ascending = ascending && (n == 0 || last < x);
    v[n++] = last = x;
  }
  if (ascending) return n;
  const Addr lo = *std::min_element(v, v + n);
  const Addr span = *std::max_element(v, v + n) - lo;
  if (span < 4096) {
    std::uint64_t bits[64];
    const int words = static_cast<int>(span >> 6) + 1;
    std::fill_n(bits, words, 0);
    for (int i = 0; i < n; ++i) {
      bits[(v[i] - lo) >> 6] |= std::uint64_t{1} << ((v[i] - lo) & 63);
    }
    n = 0;
    for (int w = 0; w < words; ++w) {
      for (std::uint64_t b = bits[w]; b != 0; b &= b - 1) {
        v[n++] = lo + static_cast<Addr>(w) * 64 + std::countr_zero(b);
      }
    }
    return n;
  }
  std::sort(v, v + n);
  return static_cast<int>(std::unique(v, v + n) - v);
}

}  // namespace

int coalesce_lines_into(const Addr* addrs, ActiveMask active, int line_bytes,
                        Addr* out) {
  PROSIM_CHECK(line_bytes > 0 && (line_bytes & (line_bytes - 1)) == 0);
  const int shift = std::countr_zero(static_cast<unsigned>(line_bytes));
  const int count = sort_unique(addrs, active, shift, out);
  for (int i = 0; i < count; ++i) out[i] <<= shift;
  return count;
}

std::vector<Addr> coalesce_lines(const Addr* addrs, ActiveMask active,
                                 int line_bytes) {
  Addr scratch[kWarpSize];
  const int count = coalesce_lines_into(addrs, active, line_bytes, scratch);
  return std::vector<Addr>(scratch, scratch + count);
}

int smem_conflict_degree(const Addr* addrs, ActiveMask active, int banks) {
  PROSIM_CHECK(banks > 0);
  if (active == 0) return 0;
  // A warp has at most kWarpSize distinct words; dedup them (a word maps
  // to exactly one bank, so global dedup equals the per-bank dedup), then
  // count occupancy per bank. No allocations.
  Addr words[kWarpSize];
  const int num_words = sort_unique(addrs, active, 3, words);
  if (num_words == 1) return 1;
  const bool pow2 = (banks & (banks - 1)) == 0;
  Addr bank_of[kWarpSize];
  for (int i = 0; i < num_words; ++i) {
    bank_of[i] = pow2 ? (words[i] & static_cast<Addr>(banks - 1))
                      : (words[i] % static_cast<Addr>(banks));
  }
  // Count occupancy per bank. Small bank counts (every real config) use a
  // direct counting array; the quadratic fallback covers arbitrary counts.
  int degree = 1;
  if (banks <= 64) {
    std::uint8_t counts[64] = {};
    for (int i = 0; i < num_words; ++i) {
      const int c = ++counts[bank_of[i]];
      degree = std::max(degree, c);
    }
  } else {
    for (int i = 0; i < num_words; ++i) {
      int same = 1;
      for (int j = 0; j < i; ++j) {
        if (bank_of[j] == bank_of[i]) ++same;
      }
      degree = std::max(degree, same);
    }
  }
  return degree;
}

}  // namespace prosim
