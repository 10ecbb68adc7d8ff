#include "common/bitvector.h"

#include <bit>
#include <cassert>

namespace aiacc {

std::size_t BitVector::Count() const noexcept {
  std::size_t total = 0;
  for (Word w : words_) total += static_cast<std::size_t>(std::popcount(w));
  return total;
}

bool BitVector::All() const noexcept { return Count() == n_bits_; }

void BitVector::SetAll() noexcept {
  for (auto& w : words_) w = ~Word{0};
  // Bits past n_bits_ stay 0 so Count, None and operator== see only real
  // bits.
  if (n_bits_ % kWordBits != 0) {
    words_.back() = (Word{1} << (n_bits_ % kWordBits)) - 1;
  }
}

bool BitVector::None() const noexcept {
  for (Word w : words_) {
    if (w != 0) return false;
  }
  return true;
}

void BitVector::MinCombine(const BitVector& other) noexcept {
  assert(n_bits_ == other.n_bits_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i] &= other.words_[i];
  }
}

void BitVector::OrCombine(const BitVector& other) noexcept {
  assert(n_bits_ == other.n_bits_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i] |= other.words_[i];
  }
}

std::vector<std::size_t> BitVector::SetIndices() const {
  std::vector<std::size_t> out;
  out.reserve(Count());
  for (std::size_t wi = 0; wi < words_.size(); ++wi) {
    Word w = words_[wi];
    while (w != 0) {
      const int bit = std::countr_zero(w);
      out.push_back(wi * kWordBits + static_cast<std::size_t>(bit));
      w &= w - 1;
    }
  }
  return out;
}

std::string BitVector::ToString() const {
  std::string s;
  s.reserve(n_bits_);
  for (std::size_t i = 0; i < n_bits_; ++i) s.push_back(Test(i) ? '1' : '0');
  return s;
}

}  // namespace aiacc
