#include "rs/reed_solomon.h"

#include <algorithm>
#include <cassert>

#include "rs/gf256.h"

namespace ule {
namespace rs {
namespace {

using G = Gf256;

// First consecutive root: parity roots are alpha^1 .. alpha^(n-k).
constexpr int kFcr = 1;

// --- Ascending-order polynomial helpers (p[i] is the coefficient of x^i) ---

using Poly = std::vector<uint8_t>;

Poly MulAsc(const Poly& a, const Poly& b) {
  Poly out(a.size() + b.size() - 1, 0);
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] == 0) continue;
    for (size_t j = 0; j < b.size(); ++j) {
      out[i + j] = static_cast<uint8_t>(out[i + j] ^ G::Mul(a[i], b[j]));
    }
  }
  return out;
}

uint8_t EvalAsc(const Poly& p, uint8_t z) {
  // Horner from the top coefficient down.
  uint8_t acc = 0;
  for (size_t i = p.size(); i-- > 0;) {
    acc = static_cast<uint8_t>(G::Mul(acc, z) ^ p[i]);
  }
  return acc;
}

// Product modulo x^limit.
Poly MulAscMod(const Poly& a, const Poly& b, size_t limit) {
  Poly out = MulAsc(a, b);
  if (out.size() > limit) out.resize(limit);
  return out;
}

// Formal derivative in characteristic 2: even-power terms vanish.
Poly DerivativeAsc(const Poly& p) {
  Poly out;
  for (size_t i = 1; i < p.size(); i += 2) {
    out.push_back(p[i]);      // coefficient of x^(i-1)
    if (i + 1 < p.size()) out.push_back(0);
  }
  if (out.empty()) out.push_back(0);
  return out;
}

size_t DegreeAsc(const Poly& p) {
  size_t d = 0;
  for (size_t i = 0; i < p.size(); ++i) {
    if (p[i] != 0) d = i;
  }
  return d;
}

}  // namespace

Codec::Codec(int n, int k) : n_(n), k_(k) {
  assert(n >= 2 && n <= 255 && k >= 1 && k < n);
  // Monic generator, descending powers: prod_{i=fcr}^{fcr+r-1} (x - alpha^i).
  generator_ = {1};
  for (int i = 0; i < n_ - k_; ++i) {
    const uint8_t root = G::Exp(kFcr + i);
    Bytes next(generator_.size() + 1, 0);
    for (size_t j = 0; j < generator_.size(); ++j) {
      next[j] ^= generator_[j];                       // * x
      next[j + 1] ^= G::Mul(generator_[j], root);     // * root (minus == plus)
    }
    generator_ = std::move(next);
  }
  root_mul_.resize(static_cast<size_t>(n_ - k_) * 256);
  for (int i = 0; i < n_ - k_; ++i) {
    const uint8_t root = G::Exp(kFcr + i);
    for (int x = 0; x < 256; ++x) {
      root_mul_[static_cast<size_t>(i) * 256 + static_cast<size_t>(x)] =
          G::Mul(static_cast<uint8_t>(x), root);
    }
  }
}

bool Codec::Syndromes(const uint8_t* word, uint8_t* synd) const {
  // S_i = C(alpha^(fcr+i)). Codeword index a has polynomial degree n-1-a,
  // so Horner over the array in transmission order is exactly the
  // descending-order evaluation. The r chains are independent, so each
  // byte advances all of them: no chain waits on its own previous step.
  const int r = n_ - k_;
  std::fill(synd, synd + r, 0);
  for (int a = 0; a < n_; ++a) {
    const uint8_t c = word[a];
    const uint8_t* row = root_mul_.data();
    for (int i = 0; i < r; ++i, row += 256) {
      synd[i] = static_cast<uint8_t>(row[synd[i]] ^ c);
    }
  }
  uint8_t any = 0;
  for (int i = 0; i < r; ++i) any |= synd[i];
  return any == 0;
}

Result<Bytes> Codec::Encode(BytesView data) const {
  if (static_cast<int>(data.size()) != k_) {
    return Status::InvalidArgument("RS encode: expected " + std::to_string(k_) +
                                   " bytes, got " + std::to_string(data.size()));
  }
  // Polynomial long division of data * x^(n-k) by the generator; the
  // remainder is the parity. Classic LFSR formulation.
  Bytes work(data.begin(), data.end());
  work.resize(static_cast<size_t>(n_), 0);
  for (int i = 0; i < k_; ++i) {
    const uint8_t coef = work[i];
    if (coef == 0) continue;
    // work[i + j] ^= generator_[j] * coef for j in [1, r] — one bulk
    // multiply-accumulate over the generator tail per data symbol.
    G::MulSliceAccum(&work[static_cast<size_t>(i) + 1], generator_.data() + 1,
                     coef, generator_.size() - 1);
  }
  Bytes codeword(data.begin(), data.end());
  codeword.insert(codeword.end(), work.begin() + k_, work.end());
  return codeword;
}

Result<std::vector<Bytes>> Codec::ErasureWeights(
    const std::vector<int>& missing) const {
  const size_t rho = missing.size();
  if (static_cast<int>(rho) > n_ - k_) {
    return Status::InvalidArgument(
        "RS erasure weights: " + std::to_string(rho) +
        " positions exceed parity " + std::to_string(n_ - k_));
  }
  std::vector<bool> is_missing(static_cast<size_t>(n_), false);
  for (int pos : missing) {
    if (pos < 0 || pos >= n_ || is_missing[static_cast<size_t>(pos)]) {
      return Status::InvalidArgument(
          "RS erasure weights: position " + std::to_string(pos) +
          " out of range or repeated");
    }
    is_missing[static_cast<size_t>(pos)] = true;
  }
  // Read the missing bytes as zero: the word becomes codeword + e with e
  // the true bytes at `missing`, so with locators X_p = alpha^(n-1-p) the
  // first rho syndromes (fcr = 1) give S_i = XOR_m X_m^(1+i) e_m. A present
  // byte b at s adds b X_s^(1+i) to S_i, and the e that solves this
  // Vandermonde system is the Lagrange interpolation
  //   e_m = b (X_s / X_m) prod_{l != m} (X_s + X_l) / (X_m + X_l).
  auto locator = [this](int pos) { return G::Exp(n_ - 1 - pos); };
  std::vector<Bytes> weights(rho, Bytes(static_cast<size_t>(n_), 0));
  for (size_t m = 0; m < rho; ++m) {
    const uint8_t x_m = locator(missing[m]);
    uint8_t denom = x_m;
    for (size_t l = 0; l < rho; ++l) {
      if (l == m) continue;
      denom = G::Mul(denom, static_cast<uint8_t>(x_m ^ locator(missing[l])));
    }
    for (int s = 0; s < n_; ++s) {
      if (is_missing[static_cast<size_t>(s)]) continue;
      const uint8_t x_s = locator(s);
      uint8_t num = x_s;
      for (size_t l = 0; l < rho; ++l) {
        if (l == m) continue;
        num = G::Mul(num, static_cast<uint8_t>(x_s ^ locator(missing[l])));
      }
      weights[m][static_cast<size_t>(s)] = G::Div(num, denom);
    }
  }
  return weights;
}

Result<Bytes> Codec::Decode(BytesView codeword, const std::vector<int>& erasures,
                            DecodeInfo* info) const {
  if (static_cast<int>(codeword.size()) != n_) {
    return Status::InvalidArgument("RS decode: expected " + std::to_string(n_) +
                                   " bytes, got " +
                                   std::to_string(codeword.size()));
  }
  std::vector<int> erasures_unique = erasures;
  std::sort(erasures_unique.begin(), erasures_unique.end());
  erasures_unique.erase(
      std::unique(erasures_unique.begin(), erasures_unique.end()),
      erasures_unique.end());

  const int r = n_ - k_;
  if (static_cast<int>(erasures_unique.size()) > r) {
    return Status::Corruption("RS decode: " + std::to_string(erasures.size()) +
                              " erasures exceed parity " + std::to_string(r));
  }
  for (int pos : erasures_unique) {
    if (pos < 0 || pos >= n_) {
      return Status::InvalidArgument("RS decode: erasure position out of range");
    }
  }

  Bytes received(codeword.begin(), codeword.end());

  Poly synd(static_cast<size_t>(r), 0);
  if (Syndromes(received.data(), synd.data())) {
    if (info) *info = DecodeInfo{};
    return Bytes(received.begin(), received.begin() + k_);
  }

  // Erasure locator Gamma(x) = prod (1 - X_m x), X_m = alpha^(n-1-pos).
  Poly gamma = {1};
  for (int pos : erasures_unique) {
    const uint8_t x_m = G::Exp(n_ - 1 - pos);
    gamma = MulAsc(gamma, Poly{1, x_m});  // (1 + X_m x): minus == plus
  }

  // Modified (Forney) syndromes T(x) = S(x) * Gamma(x) mod x^r.
  Poly t = MulAscMod(synd, gamma, static_cast<size_t>(r));

  // Berlekamp–Massey over the Forney syndrome sequence U_t = T[rho + t],
  // t in [0, r - rho): with the erasure contribution cancelled, those
  // coefficients obey the error-only LFSR generated by Lambda(x).
  Poly lambda = {1};
  Poly prev_b = {1};
  int big_l = 0;
  int m = 1;
  uint8_t b = 1;
  const int rho = static_cast<int>(erasures_unique.size());
  for (int step = 0; step < r - rho; ++step) {
    uint8_t delta = t[static_cast<size_t>(rho + step)];
    for (int i = 1; i <= big_l; ++i) {
      if (static_cast<size_t>(i) < lambda.size() && step - i >= 0) {
        delta ^= G::Mul(lambda[static_cast<size_t>(i)],
                        t[static_cast<size_t>(rho + step - i)]);
      }
    }
    if (delta == 0) {
      ++m;
      continue;
    }
    // lambda -= (delta/b) * x^m * prev_b
    Poly adjusted(prev_b.size() + static_cast<size_t>(m), 0);
    const uint8_t scale = G::Div(delta, b);
    for (size_t i = 0; i < prev_b.size(); ++i) {
      adjusted[i + static_cast<size_t>(m)] = G::Mul(prev_b[i], scale);
    }
    Poly next = lambda;
    if (next.size() < adjusted.size()) next.resize(adjusted.size(), 0);
    for (size_t i = 0; i < adjusted.size(); ++i) next[i] ^= adjusted[i];
    if (2 * big_l <= step) {
      prev_b = lambda;
      b = delta;
      big_l = step + 1 - big_l;
      m = 1;
    } else {
      ++m;
    }
    lambda = std::move(next);
  }
  const size_t nu = DegreeAsc(lambda);
  if (static_cast<int>(nu) != big_l || 2 * static_cast<int>(nu) + rho > r) {
    return Status::Corruption("RS decode: too many errors (locator degree " +
                              std::to_string(nu) + ", erasures " +
                              std::to_string(rho) + ")");
  }

  // Combined errata locator Psi = Lambda * Gamma.
  Poly psi = MulAsc(lambda, gamma);

  // Chien search: position a is errata iff Psi(X_a^{-1}) == 0.
  std::vector<int> positions;
  for (int a = 0; a < n_; ++a) {
    const int exp_pos = n_ - 1 - a;
    const uint8_t x_inv = G::Exp(255 - (exp_pos % 255));
    if (EvalAsc(psi, x_inv) == 0) positions.push_back(a);
  }
  if (positions.size() != DegreeAsc(psi)) {
    return Status::Corruption("RS decode: errata locator has wrong root count");
  }

  // Evaluator Omega = S * Psi mod x^r; Forney with fcr = 1:
  // e = X^(1-fcr) * Omega(X^{-1}) / Psi'(X^{-1}) = Omega(Xinv)/Psi'(Xinv).
  Poly omega = MulAscMod(synd, psi, static_cast<size_t>(r));
  Poly psi_prime = DerivativeAsc(psi);
  for (int a : positions) {
    const int exp_pos = n_ - 1 - a;
    const uint8_t x_inv = G::Exp(255 - (exp_pos % 255));
    const uint8_t denom = EvalAsc(psi_prime, x_inv);
    if (denom == 0) {
      return Status::Corruption("RS decode: Forney denominator is zero");
    }
    const uint8_t num = EvalAsc(omega, x_inv);
    received[a] ^= G::Div(num, denom);
  }

  // Verify: all syndromes must vanish after correction.
  if (!Syndromes(received.data(), synd.data())) {
    return Status::Corruption("RS decode: residual syndrome after correction");
  }

  if (info) {
    info->erasures_corrected = rho;
    info->errors_corrected = static_cast<int>(positions.size()) - rho;
    if (info->errors_corrected < 0) info->errors_corrected = 0;
  }
  return Bytes(received.begin(), received.begin() + k_);
}

}  // namespace rs
}  // namespace ule
