// Dense bit vector used for the gradient synchronization vector (paper §V-A):
// one bit per registered gradient, 1 = "locally computed and ready to reduce".
// Workers agree on ready gradients by min-all-reducing their vectors, which
// for bits is a bitwise AND — MinCombine implements exactly that.
#pragma once

#include <cstdint>
#include <cstddef>
#include <string>
#include <vector>

namespace aiacc {

class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(std::size_t n_bits) : n_bits_(n_bits),
      words_((n_bits + kWordBits - 1) / kWordBits, 0) {}

  [[nodiscard]] std::size_t size() const noexcept { return n_bits_; }
  [[nodiscard]] bool empty() const noexcept { return n_bits_ == 0; }

  void Set(std::size_t i) noexcept {
    words_[i / kWordBits] |= (Word{1} << (i % kWordBits));
  }
  void Clear(std::size_t i) noexcept {
    words_[i / kWordBits] &= ~(Word{1} << (i % kWordBits));
  }
  void Assign(std::size_t i, bool value) noexcept {
    if (value) Set(i); else Clear(i);
  }
  [[nodiscard]] bool Test(std::size_t i) const noexcept {
    return (words_[i / kWordBits] >> (i % kWordBits)) & 1u;
  }

  /// Resets every bit to 0 (paper: "Before each backward stage, elements of
  /// the gradient synchronization vector are set to zeros").
  void Reset() noexcept {
    for (auto& w : words_) w = 0;
  }
  /// Sets all n_bits_ bits to 1.
  void SetAll() noexcept;

  /// Number of set bits.
  [[nodiscard]] std::size_t Count() const noexcept;

  /// True when all n_bits_ bits are set.
  [[nodiscard]] bool All() const noexcept;
  /// True when no bit is set.
  [[nodiscard]] bool None() const noexcept;

  /// Element-wise min with `other` (bitwise AND): the all-reduce combine step
  /// of the decentralized gradient synchronization protocol. Sizes must match.
  void MinCombine(const BitVector& other) noexcept;
  /// Element-wise max with `other` (bitwise OR): merges another set of
  /// ready gradients into this one. Sizes must match.
  void OrCombine(const BitVector& other) noexcept;

  /// Indices of all set bits, ascending. Gradient ids are assigned in sorted
  /// registration order, so this is also the implicit communication order.
  [[nodiscard]] std::vector<std::size_t> SetIndices() const;

  /// Serialized byte size (for modeling sync-message cost: one bit/gradient).
  [[nodiscard]] std::size_t ByteSize() const noexcept {
    return words_.size() * sizeof(Word);
  }

  /// "10110..." debug rendering (bit 0 first).
  [[nodiscard]] std::string ToString() const;

  friend bool operator==(const BitVector& a, const BitVector& b) noexcept {
    return a.n_bits_ == b.n_bits_ && a.words_ == b.words_;
  }

 private:
  using Word = std::uint64_t;
  static constexpr std::size_t kWordBits = 64;

  std::size_t n_bits_ = 0;
  std::vector<Word> words_;
};

}  // namespace aiacc
