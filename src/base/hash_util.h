// Hash combinators for composite keys used in hom-search indexes and
// rewriting dedup tables.

#ifndef OMQC_BASE_HASH_UTIL_H_
#define OMQC_BASE_HASH_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace omqc {

/// Mixes `value` into `seed` (boost::hash_combine style, 64-bit constant).
inline void HashCombine(size_t& seed, size_t value) {
  seed ^= value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
}

/// The SplitMix64 finalizer: a bijective 64-bit mixer, strong enough that
/// sums of mixed values serve as order-insensitive multiset hashes.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Hashes a range of hashable elements into one value.
template <typename It>
size_t HashRange(It begin, It end) {
  size_t seed = 0xcbf29ce484222325ULL;
  for (It it = begin; it != end; ++it) {
    HashCombine(seed, std::hash<typename std::iterator_traits<It>::value_type>{}(*it));
  }
  return seed;
}

/// std::hash-compatible hasher for vectors of hashable elements.
template <typename T>
struct VectorHash {
  size_t operator()(const std::vector<T>& v) const {
    return HashRange(v.begin(), v.end());
  }
};

/// std::hash-compatible hasher for pairs.
template <typename A, typename B>
struct PairHash {
  size_t operator()(const std::pair<A, B>& p) const {
    size_t seed = std::hash<A>{}(p.first);
    HashCombine(seed, std::hash<B>{}(p.second));
    return seed;
  }
};

}  // namespace omqc

#endif  // OMQC_BASE_HASH_UTIL_H_
