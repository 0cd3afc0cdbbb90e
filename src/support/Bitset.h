//===- Bitset.h - Growable dense bitset -------------------------*- C++ -*-===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A growable dense bitset with the bulk operations the consistency checker
/// and the query slicer's liveness need: or-assign, intersection tests,
/// popcount. Out-of-range reads are zero; writes grow the storage.
///
//===----------------------------------------------------------------------===//

#ifndef RMT_SUPPORT_BITSET_H
#define RMT_SUPPORT_BITSET_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rmt {

/// Growable dense bitset.
class Bitset {
public:
  Bitset() = default;
  explicit Bitset(size_t Bits) : Words((Bits + 63) / 64, 0) {}

  void set(size_t I) {
    size_t W = I / 64;
    if (W >= Words.size())
      Words.resize(W + 1, 0);
    Words[W] |= uint64_t(1) << (I % 64);
  }

  void reset(size_t I) {
    size_t W = I / 64;
    if (W < Words.size())
      Words[W] &= ~(uint64_t(1) << (I % 64));
  }

  bool test(size_t I) const {
    size_t W = I / 64;
    return W < Words.size() && (Words[W] >> (I % 64)) & 1;
  }

  /// this |= Other; true when a bit was added.
  bool orWith(const Bitset &Other) {
    if (Other.Words.size() > Words.size())
      Words.resize(Other.Words.size(), 0);
    uint64_t Added = 0;
    for (size_t I = 0; I < Other.Words.size(); ++I) {
      Added |= Other.Words[I] & ~Words[I];
      Words[I] |= Other.Words[I];
    }
    return Added != 0;
  }

  /// this |= A & B.
  void orWithAnd(const Bitset &A, const Bitset &B) {
    size_t N = A.Words.size() < B.Words.size() ? A.Words.size()
                                               : B.Words.size();
    if (N > Words.size())
      Words.resize(N, 0);
    for (size_t I = 0; I < N; ++I)
      Words[I] |= A.Words[I] & B.Words[I];
  }

  /// True when this and Other share a set bit.
  bool intersects(const Bitset &Other) const {
    size_t N = Words.size() < Other.Words.size() ? Words.size()
                                                 : Other.Words.size();
    for (size_t I = 0; I < N; ++I)
      if (Words[I] & Other.Words[I])
        return true;
    return false;
  }

  /// Number of set bits.
  size_t count() const {
    size_t Total = 0;
    for (uint64_t W : Words)
      Total += static_cast<size_t>(__builtin_popcountll(W));
    return Total;
  }

  bool empty() const {
    for (uint64_t W : Words)
      if (W)
        return false;
    return true;
  }

private:
  std::vector<uint64_t> Words;
};

} // namespace rmt

#endif // RMT_SUPPORT_BITSET_H
