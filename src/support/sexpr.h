/**
 * @file
 * S-expression reader and writer.
 *
 * The vector DSL (paper Figure 3), rewrite-rule patterns, test fixtures,
 * cache entries and daemon payloads are all written in s-expression
 * syntax, e.g. `(VecAdd (Vec (Get a 0) (Get a 1)) (Vec (Get b 0) (Get b 1)))`.
 *
 * The grammar and its quoting rules live in two primitives:
 *
 *  - SexprWriter appends canonical text straight to a std::string;
 *  - SexprDoc parses text once, iteratively, into a flat node table whose
 *    View offers the read API of a tree.
 *
 * Sexpr is the owning tree built on top of them, for the readers (rules,
 * patterns, kernels, strategies) that keep or rewrite what they parse.
 * The compile cache and the daemon protocol never build trees: they write
 * with SexprWriter and read from a SexprDoc::View.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace diospyros {

/**
 * Deepest list nesting any s-expression reader accepts; deeper input
 * raises UserError. It bounds every recursive reader downstream of the
 * parser (terms, patterns, strategies, kernels, cache entries), so one
 * hostile payload cannot overflow the stack. The deepest checked-in
 * input (test suite, sample kernels and strategies, the benchmark's
 * kernel texts, cache envelopes and daemon payloads) nests 16 levels.
 */
constexpr std::size_t kMaxSexprDepth = 512;

/**
 * Appends canonical s-expression text to a string: siblings separated by
 * one space, atoms quoted only when they must be (empty, or holding
 * whitespace, parens, ';', '"' or '\\'), with \" \\ \n \t \r escapes.
 */
class SexprWriter {
  public:
    explicit SexprWriter(std::string& out) : out_(out) {}

    /** Opens a list. */
    SexprWriter& open();
    /** Opens a list whose first element is the atom `head`. */
    SexprWriter& open(std::string_view head);
    /** Closes the innermost open list. */
    SexprWriter& close();
    /** Writes one atom; any text, quoted when it needs to be. */
    SexprWriter& atom(std::string_view text);
    SexprWriter& i64(std::int64_t v);
    SexprWriter& u64(std::uint64_t v);
    /** Exact hexfloat atom (printf "%a", e.g. 0x1.8p+1). */
    SexprWriter& f64(double v);

  private:
    void separate();

    std::string& out_;
    bool need_space_ = false;
};

/**
 * A parsed s-expression text: one flat node array plus one child-index
 * array. Atom tokens are views into the source text; only quoted strings
 * with escapes get decoded storage of their own. The document borrows the
 * source: the text must outlive it (and every View of it).
 */
class SexprDoc {
  public:
    /** A node of the document, with the read API of Sexpr. */
    class View {
      public:
        bool is_atom() const;
        bool is_list() const { return !is_atom(); }

        /** Atom text; requires is_atom(). */
        std::string_view token() const;

        /** Number of children (0 for atoms). */
        std::size_t size() const;

        /** i-th child; requires is_list() and i < size(). */
        View operator[](std::size_t i) const;

        /** True when this is a list whose first child is the atom `head`. */
        bool has_head(std::string_view head) const;

        /** The atom as a signed integer; nullopt if it is not one. */
        std::optional<std::int64_t> integer() const;
        /** The atom as a number; nullopt if it is not one. */
        std::optional<double> number() const;

        bool is_integer() const { return integer().has_value(); }
        /** Requires is_integer(). */
        std::int64_t as_integer() const;
        bool is_number() const { return number().has_value(); }
        /** Requires is_number(). */
        double as_number() const;

        /** Canonical (flat) rendering. */
        std::string to_string() const;

        /**
         * Rendering wrapped at roughly `max_width` columns: a list that
         * does not fit flat puts each child on its own line, indented two
         * spaces past its parent. Linear in the output size.
         */
        std::string to_pretty_string(int max_width = 79) const;

      private:
        friend class SexprDoc;
        View(const SexprDoc* doc, std::uint32_t id) : doc_(doc), id_(id) {}

        /** Writes this node and its subtree in canonical form. */
        void write(SexprWriter& w) const;

        const SexprDoc* doc_;
        std::uint32_t id_;
    };

    /**
     * Parses exactly one s-expression. Trailing whitespace and comments
     * are permitted; anything else, unbalanced parens, an unterminated
     * string or nesting past kMaxSexprDepth raises UserError.
     */
    explicit SexprDoc(std::string_view text);
    explicit SexprDoc(const char* text) : SexprDoc(std::string_view(text)) {}
    /** The document would outlive a temporary source; keep it alive. */
    explicit SexprDoc(std::string&&) = delete;

    /** Parses a sequence of zero or more s-expressions (a rule file). */
    static SexprDoc sequence(std::string_view text);

    /** Number of top-level forms (1 unless built by sequence()). */
    std::size_t root_count() const { return roots_.size(); }
    /** The i-th top-level form. */
    View root(std::size_t i = 0) const;

  private:
    enum class Kind : std::uint8_t { kAtom, kDecoded, kList };

    /**
     * kAtom: token at source[begin, begin + size); kDecoded: token at
     * decoded_[begin, begin + size); kList: children at
     * kids_[begin, begin + size).
     */
    struct Node {
        std::uint32_t begin;
        std::uint32_t size;
        Kind kind;
    };

    SexprDoc(std::string_view text, bool one);
    void parse(bool one);
    /** Reads the quoted string at `pos` and moves `pos` past it. */
    Node read_string(std::size_t& pos);

    std::string_view text_;
    std::vector<Node> nodes_;
    std::vector<std::uint32_t> kids_;
    std::vector<std::uint32_t> roots_;
    std::string decoded_;
};

/** A parsed s-expression: either an atom (token) or a list of children. */
class Sexpr {
  public:
    /** Makes an atom node holding the given token text. */
    static Sexpr atom(std::string token);

    /**
     * Makes an atom holding arbitrary text (may be empty or contain
     * whitespace, parens, quotes...). Serialized as a double-quoted
     * string with escapes; parses back to an atom with identical
     * token().
     */
    static Sexpr string_atom(std::string text);

    /** Makes a list node with the given children. */
    static Sexpr list(std::vector<Sexpr> children);

    bool is_atom() const { return is_atom_; }
    bool is_list() const { return !is_atom_; }

    /** Atom token text; requires is_atom(). */
    const std::string& token() const;

    /** List children; requires is_list(). */
    const std::vector<Sexpr>& children() const;

    /** Number of children (0 for atoms). */
    std::size_t size() const;

    /** i-th child; requires is_list() and i < size(). */
    const Sexpr& operator[](std::size_t i) const;

    /** True if this atom parses as a signed integer. */
    bool is_integer() const;

    /** Parses this atom as an integer; requires is_integer(). */
    std::int64_t as_integer() const;

    /** True if this atom parses as a (possibly non-integer) number. */
    bool is_number() const;

    /** Parses this atom as a double; requires is_number(). */
    double as_number() const;

    /** Serializes back to textual s-expression form. */
    std::string to_string() const;

    bool operator==(const Sexpr& other) const;

  private:
    Sexpr() = default;

    void write(SexprWriter& w) const;

    bool is_atom_ = false;
    std::string token_;
    std::vector<Sexpr> children_;
};

/**
 * Parses a single s-expression from the input text. Trailing whitespace is
 * permitted; trailing non-whitespace raises UserError.
 */
Sexpr parse_sexpr(const std::string& text);

/** Parses a sequence of s-expressions (e.g. a rule file). */
std::vector<Sexpr> parse_sexpr_list(const std::string& text);

}  // namespace diospyros
