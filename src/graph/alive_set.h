// alive_set.h -- a set of node ids kept as rank/select words: one bit
// per id, 64 ids per word, plus a Fenwick (binary indexed) tree over
// the words' popcounts.
//
// Membership is one bit test; insert and erase flip one bit and walk
// O(log n) Fenwick entries; the r-th member in ascending order is one
// O(log n) descent plus an in-word select, both free of data-dependent
// branches; ascending iteration decodes the words. Graph keeps one as
// its alive index, and every FlatView snapshot holds a copy that a
// patch edits one bit per id that died or was born -- so neither ever
// materializes the alive list.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "graph/types.h"

namespace dash::graph {

class AliveSet {
 public:
  /// Ascending iteration over the members, one word at a time.
  class Iterator {
   public:
    NodeId operator*() const {
      return static_cast<NodeId>(word_ * 64 + std::countr_zero(bits_));
    }
    Iterator& operator++() {
      bits_ &= bits_ - 1;
      settle();
      return *this;
    }
    /// settle() stops only on a set bit or past the last word.
    bool operator==(std::default_sentinel_t) const { return bits_ == 0; }

   private:
    friend class AliveSet;
    Iterator(const std::uint64_t* words, std::size_t num_words)
        : words_(words), num_words_(num_words) {
      if (num_words_ != 0) bits_ = words_[0];
      settle();
    }
    void settle() {
      while (bits_ == 0 && ++word_ < num_words_) bits_ = words_[word_];
    }

    const std::uint64_t* words_;
    std::size_t num_words_;
    std::size_t word_ = 0;
    std::uint64_t bits_ = 0;
  };

  /// Members 0..n-1. An empty set allocates nothing until grow().
  explicit AliveSet(std::size_t n = 0);

  /// Number of members.
  std::size_t size() const { return count_; }

  /// Membership of v, which must be below the capacity grow() made;
  /// callers check their own id space first.
  bool contains(NodeId v) const { return (words_[v >> 6] >> (v & 63)) & 1; }

  /// Add v, which must be absent and below the capacity grow() made.
  void insert(NodeId v) { flip(v, true); }
  /// Remove v, which must be present.
  void erase(NodeId v) { flip(v, false); }

  /// Make room for ids below n. The word count stays a power of two
  /// (the Fenwick capacity), so growing one id at a time rebuilds the
  /// Fenwick tree only when the capacity doubles.
  void grow(std::size_t n);

  /// The r-th member in ascending order, in O(log n). r must be
  /// < size().
  NodeId kth(std::size_t r) const;

  Iterator begin() const { return {words_.data(), words_.size()}; }
  std::default_sentinel_t end() const { return {}; }

 private:
  /// Flip v's bit (which must differ from `present`) and its word's
  /// Fenwick counts.
  void flip(NodeId v, bool present);
  /// Rebuild the Fenwick tree from the words in O(words).
  void build_fenwick();

  /// Member bit per id. The word count is a power of two (or zero);
  /// bits past the ids handed to grow() stay clear.
  std::vector<std::uint64_t> words_;
  /// 1-based Fenwick tree over the words' popcounts, one entry per word
  /// of capacity (entry 0 unused).
  std::vector<std::uint32_t> fenwick_;
  std::size_t count_ = 0;
};

}  // namespace dash::graph
