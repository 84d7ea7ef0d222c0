//===-- support/SmallVector.h - Inline-storage vector -----------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A vector with inline storage for the first `N` elements, for hot
/// containers whose typical size is small and bounded (the chain DP's
/// Pareto fronts are capped at `MaxFrontSize`, default 8, so a matching
/// inline capacity removes every per-state heap allocation). Restricted
/// to trivially copyable element types: growth is a plain memcpy, and
/// insert and erase shift the few elements after the position in place,
/// with no element lifetimes to manage.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_SUPPORT_SMALLVECTOR_H
#define CWS_SUPPORT_SMALLVECTOR_H

#include "support/Check.h"

#include <cstddef>
#include <cstring>
#include <memory>
#include <type_traits>

namespace cws {

template <typename T, size_t N> class SmallVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVector is restricted to trivially copyable types");
  static_assert(N > 0, "inline capacity must be positive");

public:
  SmallVector() = default;
  ~SmallVector() = default;

  SmallVector(const SmallVector &Other) { *this = Other; }
  SmallVector &operator=(const SmallVector &Other) {
    if (this == &Other)
      return *this;
    Sz = 0;
    reserve(Other.Sz);
    std::memcpy(data(), Other.data(), Other.Sz * sizeof(T));
    Sz = Other.Sz;
    return *this;
  }

  T *begin() { return data(); }
  T *end() { return data() + Sz; }
  const T *begin() const { return data(); }
  const T *end() const { return data() + Sz; }

  T &operator[](size_t I) { return data()[I]; }
  const T &operator[](size_t I) const { return data()[I]; }
  T &back() { return data()[Sz - 1]; }
  const T &back() const { return data()[Sz - 1]; }

  size_t size() const { return Sz; }
  bool empty() const { return Sz == 0; }
  size_t capacity() const { return Cap; }
  /// True while no element has spilled to the heap.
  bool inlined() const { return !Heap; }

  void clear() { Sz = 0; }

  void reserve(size_t Wanted) {
    if (Wanted <= Cap)
      return;
    size_t NewCap = Cap * 2 > Wanted ? Cap * 2 : Wanted;
    auto NewHeap = std::make_unique<unsigned char[]>(NewCap * sizeof(T));
    std::memcpy(NewHeap.get(), data(), Sz * sizeof(T));
    Heap = std::move(NewHeap);
    Cap = NewCap;
  }

  void push_back(const T &V) {
    reserve(Sz + 1);
    data()[Sz++] = V;
  }

  /// Inserts \p V before \p Pos (an iterator into this vector).
  void insert(T *Pos, const T &V) {
    size_t Idx = static_cast<size_t>(Pos - data());
    CWS_CHECK(Idx <= Sz, "insert position out of range");
    reserve(Sz + 1);
    T *D = data();
    for (size_t I = Sz; I > Idx; --I)
      D[I] = D[I - 1];
    D[Idx] = V;
    ++Sz;
  }

  /// Erases [First, Last); returns the new iterator at First's offset.
  T *erase(T *First, T *Last) {
    size_t Lo = static_cast<size_t>(First - data());
    size_t Hi = static_cast<size_t>(Last - data());
    CWS_CHECK(Lo <= Hi && Hi <= Sz, "erase range out of bounds");
    T *D = data();
    for (size_t I = Hi; I < Sz; ++I)
      D[Lo + I - Hi] = D[I];
    Sz -= Hi - Lo;
    return D + Lo;
  }

  T *erase(T *Pos) { return erase(Pos, Pos + 1); }

private:
  T *data() {
    return Heap ? reinterpret_cast<T *>(Heap.get())
                : reinterpret_cast<T *>(Inline);
  }
  const T *data() const {
    return Heap ? reinterpret_cast<const T *>(Heap.get())
                : reinterpret_cast<const T *>(Inline);
  }

  alignas(T) unsigned char Inline[N * sizeof(T)];
  std::unique_ptr<unsigned char[]> Heap;
  size_t Sz = 0;
  size_t Cap = N;
};

} // namespace cws

#endif // CWS_SUPPORT_SMALLVECTOR_H
