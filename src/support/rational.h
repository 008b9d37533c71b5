/**
 * @file
 * Exact rational arithmetic over 64-bit integers with overflow detection.
 *
 * Term and e-graph constants are rationals, so constant folding and
 * translation validation (Section 3.4 of the paper validates over real
 * arithmetic) never round. Overflow raises RationalOverflow so callers can
 * keep the unfolded form rather than silently computing a wrong value.
 */
#pragma once

#include <compare>
#include <cstdint>
#include <numeric>
#include <ostream>
#include <stdexcept>
#include <string>

#include "support/hash.h"

namespace diospyros {

/** Raised when an exact rational computation exceeds 64-bit range. */
class RationalOverflow : public std::overflow_error {
  public:
    RationalOverflow() : std::overflow_error("rational overflow") {}
};

/**
 * An exact rational number num/den, always stored in lowest terms with a
 * positive denominator. Zero is 0/1.
 */
class Rational {
  public:
    /** Constructs zero. */
    Rational() : num_(0), den_(1) {}

    /** Constructs the integer value n. */
    Rational(std::int64_t n) : num_(n), den_(1) {}  // NOLINT(implicit)

    /** Constructs n/d; requires d != 0. */
    Rational(std::int64_t n, std::int64_t d) : num_(n), den_(d)
    {
        if (den_ == 0) {
            throw std::domain_error("rational with zero denominator");
        }
        normalize();
    }

    std::int64_t num() const { return num_; }
    std::int64_t den() const { return den_; }

    bool is_zero() const { return num_ == 0; }
    bool is_one() const { return num_ == 1 && den_ == 1; }
    bool is_integer() const { return den_ == 1; }

    /** Value as a double (inexact; for reporting and FP evaluation). */
    double
    to_double() const
    {
        return static_cast<double>(num_) / static_cast<double>(den_);
    }

    Rational
    operator-() const
    {
        Rational r;
        r.num_ = checked_neg(num_);
        r.den_ = den_;
        return r;
    }

    Rational
    operator+(const Rational& o) const
    {
        // a/b + c/d = (a*d + c*b) / (b*d), with gcd pre-reduction to keep
        // intermediates small.
        const std::int64_t g = std::gcd(den_, o.den_);
        const std::int64_t lhs_scale = o.den_ / g;
        const std::int64_t rhs_scale = den_ / g;
        const std::int64_t n = checked_add(checked_mul(num_, lhs_scale),
                                           checked_mul(o.num_, rhs_scale));
        const std::int64_t d = checked_mul(den_, lhs_scale);
        return Rational(n, d);
    }

    Rational operator-(const Rational& o) const { return *this + (-o); }

    Rational
    operator*(const Rational& o) const
    {
        // Cross-reduce before multiplying to delay overflow.
        const std::int64_t g1 = std::gcd(abs64(num_), abs64(o.den_));
        const std::int64_t g2 = std::gcd(abs64(o.num_), abs64(den_));
        const std::int64_t n =
            checked_mul(num_ / (g1 ? g1 : 1), o.num_ / (g2 ? g2 : 1));
        const std::int64_t d =
            checked_mul(den_ / (g2 ? g2 : 1), o.den_ / (g1 ? g1 : 1));
        return Rational(n, d);
    }

    Rational
    operator/(const Rational& o) const
    {
        if (o.is_zero()) {
            throw std::domain_error("rational division by zero");
        }
        return *this * Rational(o.den_, o.num_);
    }

    Rational& operator+=(const Rational& o) { return *this = *this + o; }
    Rational& operator-=(const Rational& o) { return *this = *this - o; }
    Rational& operator*=(const Rational& o) { return *this = *this * o; }
    Rational& operator/=(const Rational& o) { return *this = *this / o; }

    bool
    operator==(const Rational& o) const
    {
        return num_ == o.num_ && den_ == o.den_;
    }

    std::strong_ordering
    operator<=>(const Rational& o) const
    {
        // Compare a/b vs c/d via 128-bit cross products (exact).
        const __int128 lhs = static_cast<__int128>(num_) * o.den_;
        const __int128 rhs = static_cast<__int128>(o.num_) * den_;
        if (lhs < rhs) return std::strong_ordering::less;
        if (lhs > rhs) return std::strong_ordering::greater;
        return std::strong_ordering::equal;
    }

    /** Renders as "n" or "n/d". */
    std::string
    to_string() const
    {
        if (den_ == 1) {
            return std::to_string(num_);
        }
        return std::to_string(num_) + "/" + std::to_string(den_);
    }

    friend std::ostream&
    operator<<(std::ostream& os, const Rational& r)
    {
        return os << r.to_string();
    }

  private:
    static std::int64_t
    abs64(std::int64_t v)
    {
        return v < 0 ? checked_neg(v) : v;
    }

    static std::int64_t
    checked_neg(std::int64_t v)
    {
        if (v == INT64_MIN) {
            throw RationalOverflow();
        }
        return -v;
    }

    static std::int64_t
    checked_add(std::int64_t a, std::int64_t b)
    {
        std::int64_t out;
        if (__builtin_add_overflow(a, b, &out)) {
            throw RationalOverflow();
        }
        return out;
    }

    static std::int64_t
    checked_mul(std::int64_t a, std::int64_t b)
    {
        std::int64_t out;
        if (__builtin_mul_overflow(a, b, &out)) {
            throw RationalOverflow();
        }
        return out;
    }

    void
    normalize()
    {
        if (den_ < 0) {
            num_ = checked_neg(num_);
            den_ = checked_neg(den_);
        }
        const std::int64_t g = std::gcd(abs64(num_), den_);
        if (g > 1) {
            num_ /= g;
            den_ /= g;
        }
        if (num_ == 0) {
            den_ = 1;
        }
    }

    std::int64_t num_;
    std::int64_t den_;
};

}  // namespace diospyros

namespace std {

template <>
struct hash<diospyros::Rational> {
    size_t
    operator()(const diospyros::Rational& r) const
    {
        size_t seed = 0;
        diospyros::hash_combine(seed, r.num());
        diospyros::hash_combine(seed, r.den());
        return seed;
    }
};

}  // namespace std
