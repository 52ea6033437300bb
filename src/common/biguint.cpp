#include "common/biguint.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace alchemist {

BigUInt::BigUInt(u64 value) {
  if (value != 0) limbs_.push_back(value);
}

BigUInt BigUInt::product(const std::vector<u64>& factors) {
  BigUInt result(1);
  for (u64 f : factors) result.mul_u64(f);
  return result;
}

void BigUInt::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

std::size_t BigUInt::bit_length() const {
  if (limbs_.empty()) return 0;
  u64 top = limbs_.back();
  std::size_t bits = (limbs_.size() - 1) * 64;
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

BigUInt& BigUInt::operator+=(const BigUInt& other) {
  if (limbs_.size() < other.limbs_.size()) limbs_.resize(other.limbs_.size(), 0);
  u64 carry = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    u128 sum = u128{limbs_[i]} + (i < other.limbs_.size() ? other.limbs_[i] : 0) + carry;
    limbs_[i] = static_cast<u64>(sum);
    carry = static_cast<u64>(sum >> 64);
  }
  if (carry != 0) limbs_.push_back(carry);
  return *this;
}

BigUInt& BigUInt::operator-=(const BigUInt& other) {
  if (compare(other) < 0) throw std::invalid_argument("BigUInt: negative subtraction");
  u64 borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const u64 rhs = i < other.limbs_.size() ? other.limbs_[i] : 0;
    const u128 lhs = u128{limbs_[i]};
    const u128 sub = u128{rhs} + borrow;
    if (lhs >= sub) {
      limbs_[i] = static_cast<u64>(lhs - sub);
      borrow = 0;
    } else {
      limbs_[i] = static_cast<u64>((u128{1} << 64) + lhs - sub);
      borrow = 1;
    }
  }
  trim();
  return *this;
}

BigUInt& BigUInt::mul_u64(u64 factor) {
  if (factor == 0) {
    limbs_.clear();
    return *this;
  }
  u64 carry = 0;
  for (u64& limb : limbs_) {
    u128 prod = u128{limb} * factor + carry;
    limb = static_cast<u64>(prod);
    carry = static_cast<u64>(prod >> 64);
  }
  if (carry != 0) limbs_.push_back(carry);
  return *this;
}

BigUInt& BigUInt::add_u64(u64 value) {
  return *this += BigUInt(value);
}

BigUInt BigUInt::operator*(const BigUInt& other) const {
  if (is_zero() || other.is_zero()) return BigUInt();
  BigUInt result;
  result.limbs_.assign(limbs_.size() + other.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    u64 carry = 0;
    for (std::size_t j = 0; j < other.limbs_.size(); ++j) {
      u128 cur = u128{limbs_[i]} * other.limbs_[j] + result.limbs_[i + j] + carry;
      result.limbs_[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    std::size_t k = i + other.limbs_.size();
    while (carry != 0) {
      u128 cur = u128{result.limbs_[k]} + carry;
      result.limbs_[k] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
      ++k;
    }
  }
  result.trim();
  return result;
}

u64 BigUInt::mod_u64(u64 divisor) const {
  if (divisor == 0) throw std::invalid_argument("BigUInt: mod by zero");
  u128 rem = 0;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    rem = ((rem << 64) | limbs_[i]) % divisor;
  }
  return static_cast<u64>(rem);
}

BigUInt BigUInt::div_u64(u64 divisor, bool require_exact) const {
  if (divisor == 0) throw std::invalid_argument("BigUInt: div by zero");
  BigUInt quotient;
  quotient.limbs_.assign(limbs_.size(), 0);
  u128 rem = 0;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    rem = (rem << 64) | limbs_[i];
    quotient.limbs_[i] = static_cast<u64>(rem / divisor);
    rem %= divisor;
  }
  if (require_exact && rem != 0) throw std::logic_error("BigUInt: inexact division");
  quotient.trim();
  return quotient;
}

int BigUInt::compare(const BigUInt& other) const {
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() < other.limbs_.size() ? -1 : 1;
  }
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) return limbs_[i] < other.limbs_[i] ? -1 : 1;
  }
  return 0;
}

std::string BigUInt::to_hex() const {
  if (limbs_.empty()) return "0x0";
  static const char* digits = "0123456789abcdef";
  std::string out = "0x";
  bool leading = true;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = 60; shift >= 0; shift -= 4) {
      const int nibble = static_cast<int>((limbs_[i] >> shift) & 0xF);
      if (leading && nibble == 0 && !(i == 0 && shift == 0)) continue;
      leading = false;
      out.push_back(digits[nibble]);
    }
  }
  return out;
}

double BigUInt::to_double() const {
  double value = 0.0;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    value = value * 0x1.0p64 + static_cast<double>(limbs_[i]);
  }
  return value;
}

CrtComposer::CrtComposer(std::vector<u64> moduli) : moduli_(std::move(moduli)) {
  radix_inv_.reserve(moduli_.size());
  radix_.resize(moduli_.size());
  for (std::size_t i = 0; i < moduli_.size(); ++i) {
    const u64 qi = moduli_[i];
    u64 m = 1 % qi;  // q_0 ... q_{j-1} mod q_i
    for (std::size_t j = 0; j < i; ++j) {
      radix_[i].emplace_back(m, qi);
      m = mul_mod(m, moduli_[j] % qi, qi);
    }
    radix_inv_.emplace_back(inv_mod(m, qi), qi);
  }
}

BigUInt CrtComposer::compose(std::span<const u64> residues) const {
  const std::size_t count = moduli_.size();
  if (residues.size() != count) throw std::invalid_argument("crt_compose: size mismatch");
  // Digit i is (r_i - (t_0 + t_1 q_0 + ... + t_{i-1} q_0 ... q_{i-2})) over
  // q_0 ... q_{i-1}, mod q_i; then x = t_0 + q_0 (t_1 + q_1 (t_2 + ...)).
  std::vector<u64> digits(count);
  for (std::size_t i = 0; i < count; ++i) {
    const u64 qi = moduli_[i];
    u64 partial = 0;
    for (std::size_t j = 0; j < i; ++j) {
      partial = add_mod(partial, radix_[i][j].mul(digits[j]), qi);
    }
    digits[i] = radix_inv_[i].mul(sub_mod(residues[i] % qi, partial, qi));
  }
  BigUInt x;
  for (std::size_t i = count; i-- > 0;) {
    x.mul_u64(moduli_[i]);
    x.add_u64(digits[i]);
  }
  return x;
}

BigUInt crt_compose(const std::vector<u64>& residues, const std::vector<u64>& moduli) {
  return CrtComposer(moduli).compose(residues);
}

}  // namespace alchemist
