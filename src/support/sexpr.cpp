#include "support/sexpr.h"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <utility>

#include "support/error.h"

namespace diospyros {

namespace {

// ---------------------------------------------------------------------------
// The grammar, shared by the writer, the parser and both read APIs
// ---------------------------------------------------------------------------

/** Character classes of the grammar, one table lookup per byte. */
enum : unsigned char { kSpace = 1, kEndsAtom = 2, kQuoted = 4 };

constexpr std::array<unsigned char, 256> kCharClass = [] {
    std::array<unsigned char, 256> t{};
    // std::isspace in the "C" locale.
    for (const unsigned char c : {' ', '\t', '\n', '\v', '\f', '\r'}) {
        t[c] = kSpace | kEndsAtom | kQuoted;
    }
    for (const unsigned char c : {'(', ')', ';'}) {
        t[c] = kEndsAtom | kQuoted;
    }
    for (const unsigned char c : {'"', '\\'}) {
        t[c] = kQuoted;
    }
    return t;
}();

constexpr bool
is_space(char c)
{
    return (kCharClass[static_cast<unsigned char>(c)] & kSpace) != 0;
}

/** Characters that end a bare atom. */
constexpr bool
ends_atom(char c)
{
    return (kCharClass[static_cast<unsigned char>(c)] & kEndsAtom) != 0;
}

/** True when a token must be serialized as a quoted string. */
bool
needs_quoting(std::string_view token)
{
    if (token.empty()) {
        return true;
    }
    for (const char c : token) {
        if ((kCharClass[static_cast<unsigned char>(c)] & kQuoted) != 0) {
            return true;
        }
    }
    return false;
}

void
write_quoted(std::string& out, std::string_view token)
{
    out += '"';
    std::size_t run = 0;  // start of the pending unescaped run
    for (std::size_t i = 0; i < token.size(); ++i) {
        const char* esc = nullptr;
        switch (token[i]) {
          case '"':
            esc = "\\\"";
            break;
          case '\\':
            esc = "\\\\";
            break;
          case '\n':
            esc = "\\n";
            break;
          case '\t':
            esc = "\\t";
            break;
          case '\r':
            esc = "\\r";
            break;
          default:
            continue;
        }
        out.append(token.substr(run, i - run));
        out.append(esc);
        run = i + 1;
    }
    out.append(token.substr(run));
    out += '"';
}

/** Length of the atom as written (quotes and escapes included). */
std::size_t
written_length(std::string_view token)
{
    if (!needs_quoting(token)) {
        return token.size();
    }
    std::size_t len = token.size() + 2;
    for (const char c : token) {
        if (c == '"' || c == '\\' || c == '\n' || c == '\t' || c == '\r') {
            ++len;
        }
    }
    return len;
}

template <typename Int>
void
append_integer(std::string& out, Int v)
{
    char buf[24];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
    (void)ec;  // 24 bytes hold any 64-bit integer
    out.append(buf, static_cast<std::size_t>(end - buf));
}

bool
token_is_integer(std::string_view token)
{
    if (token.empty()) {
        return false;
    }
    std::size_t i = (token[0] == '-' || token[0] == '+') ? 1 : 0;
    if (i == token.size()) {
        return false;
    }
    for (; i < token.size(); ++i) {
        if (token[i] < '0' || token[i] > '9') {
            return false;
        }
    }
    return true;
}

/** strtoll semantics (saturating) for a token_is_integer() token. */
std::int64_t
token_to_integer(std::string_view token)
{
    const std::size_t skip = token[0] == '+' ? 1 : 0;
    std::int64_t v = 0;
    const auto [ptr, ec] =
        std::from_chars(token.data() + skip, token.data() + token.size(), v);
    (void)ptr;
    if (ec == std::errc::result_out_of_range) {
        return token[0] == '-' ? std::numeric_limits<std::int64_t>::min()
                               : std::numeric_limits<std::int64_t>::max();
    }
    return v;
}

/** strtod over the whole token; nullopt unless it all parses. */
std::optional<double>
token_to_number(std::string_view token)
{
    if (token.empty()) {
        return std::nullopt;
    }
    // strtod needs a terminator; numbers are short, so copy to the stack.
    char small[64];
    std::string big;
    const char* text = small;
    if (token.size() < sizeof small) {
        std::memcpy(small, token.data(), token.size());
        small[token.size()] = '\0';
    } else {
        big.assign(token);
        text = big.c_str();
    }
    char* end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == nullptr || end == text || *end != '\0') {
        return std::nullopt;
    }
    return v;
}

}  // namespace

// ---------------------------------------------------------------------------
// SexprWriter
// ---------------------------------------------------------------------------

void
SexprWriter::separate()
{
    if (need_space_) {
        out_ += ' ';
    }
    need_space_ = true;
}

SexprWriter&
SexprWriter::open()
{
    separate();
    out_ += '(';
    need_space_ = false;
    return *this;
}

SexprWriter&
SexprWriter::open(std::string_view head)
{
    return open().atom(head);
}

SexprWriter&
SexprWriter::close()
{
    out_ += ')';
    need_space_ = true;
    return *this;
}

SexprWriter&
SexprWriter::atom(std::string_view text)
{
    separate();
    if (needs_quoting(text)) {
        write_quoted(out_, text);
    } else {
        out_.append(text);
    }
    return *this;
}

SexprWriter&
SexprWriter::i64(std::int64_t v)
{
    separate();
    append_integer(out_, v);
    return *this;
}

SexprWriter&
SexprWriter::u64(std::uint64_t v)
{
    separate();
    append_integer(out_, v);
    return *this;
}

SexprWriter&
SexprWriter::f64(double v)
{
    separate();
    if (v == 0.0 && !std::signbit(v)) {
        out_ += "0x0p+0";  // what "%a" prints, without the printf
        return *this;
    }
    char buf[48];
    const int n = std::snprintf(buf, sizeof buf, "%a", v);
    out_.append(buf, static_cast<std::size_t>(n));
    return *this;
}

// ---------------------------------------------------------------------------
// SexprDoc
// ---------------------------------------------------------------------------

SexprDoc::SexprDoc(std::string_view text) : SexprDoc(text, true) {}

SexprDoc::SexprDoc(std::string_view text, bool one) : text_(text)
{
    parse(one);
}

SexprDoc
SexprDoc::sequence(std::string_view text)
{
    return SexprDoc(text, false);
}

SexprDoc::View
SexprDoc::root(std::size_t i) const
{
    DIOS_ASSERT(i < roots_.size(), "s-expression root index out of range");
    return View(this, roots_[i]);
}

void
SexprDoc::parse(bool one)
{
    DIOS_CHECK(text_.size() <= std::numeric_limits<std::uint32_t>::max(),
               "s-expression input too large");
    const std::size_t n = text_.size();
    // Open lists, innermost last, each with where its children start in
    // `pending`; a list's children move to kids_ when it closes.
    struct Open {
        std::uint32_t id;
        std::size_t mark;
    };
    std::vector<Open> open;
    std::vector<std::uint32_t> pending;
    auto add = [&](Node node) {
        const auto id = static_cast<std::uint32_t>(nodes_.size());
        nodes_.push_back(node);
        (open.empty() ? roots_ : pending).push_back(id);
        return id;
    };

    std::size_t pos = 0;
    while (true) {
        while (pos < n) {
            if (is_space(text_[pos])) {
                ++pos;
            } else if (text_[pos] == ';') {  // line comment
                while (pos < n && text_[pos] != '\n') {
                    ++pos;
                }
            } else {
                break;
            }
        }
        if (pos == n) {
            break;
        }
        DIOS_CHECK(!one || !open.empty() || roots_.empty(),
                   "trailing characters after s-expression");
        const char c = text_[pos];
        if (c == '(') {
            DIOS_CHECK(open.size() < kMaxSexprDepth,
                       "s-expression nests deeper than " +
                           std::to_string(kMaxSexprDepth) + " levels");
            open.push_back({add({0, 0, Kind::kList}), pending.size()});
            ++pos;
        } else if (c == ')') {
            DIOS_CHECK(!open.empty(), "unexpected ')' in s-expression");
            const Open o = open.back();
            open.pop_back();
            Node& list = nodes_[o.id];
            list.begin = static_cast<std::uint32_t>(kids_.size());
            list.size = static_cast<std::uint32_t>(pending.size() - o.mark);
            kids_.insert(kids_.end(),
                         pending.begin() + static_cast<std::ptrdiff_t>(o.mark),
                         pending.end());
            pending.resize(o.mark);
            ++pos;
        } else if (c == '"') {
            add(read_string(pos));
        } else {
            const std::size_t start = pos;
            while (pos < n && !ends_atom(text_[pos])) {
                ++pos;
            }
            add({static_cast<std::uint32_t>(start),
                 static_cast<std::uint32_t>(pos - start), Kind::kAtom});
        }
    }
    DIOS_CHECK(open.empty(), "unterminated s-expression list");
    DIOS_CHECK(!one || !roots_.empty(),
               "unexpected end of s-expression input");
}

SexprDoc::Node
SexprDoc::read_string(std::size_t& pos)
{
    const std::size_t n = text_.size();
    const std::size_t start = ++pos;  // past the opening '"'
    const std::size_t begin = decoded_.size();
    bool escaped = false;
    std::size_t run = start;  // start of the pending unescaped run
    while (true) {
        while (pos < n && text_[pos] != '"' && text_[pos] != '\\') {
            ++pos;
        }
        DIOS_CHECK(pos < n, "unterminated string in s-expression");
        if (text_[pos] == '"') {
            break;
        }
        // An escape: the token moves to storage of our own.
        decoded_.append(text_.substr(run, pos - run));
        escaped = true;
        ++pos;
        DIOS_CHECK(pos < n, "dangling escape at end of s-expression string");
        switch (const char esc = text_[pos++]) {
          case 'n':
            decoded_ += '\n';
            break;
          case 't':
            decoded_ += '\t';
            break;
          case 'r':
            decoded_ += '\r';
            break;
          default:
            // Covers \" and \\; any other escaped char is literal.
            decoded_ += esc;
        }
        run = pos;
    }
    ++pos;  // past the closing '"'
    if (!escaped) {
        return {static_cast<std::uint32_t>(start),
                static_cast<std::uint32_t>(pos - 1 - start), Kind::kAtom};
    }
    decoded_.append(text_.substr(run, pos - 1 - run));
    return {static_cast<std::uint32_t>(begin),
            static_cast<std::uint32_t>(decoded_.size() - begin),
            Kind::kDecoded};
}

bool
SexprDoc::View::is_atom() const
{
    return doc_->nodes_[id_].kind != Kind::kList;
}

std::string_view
SexprDoc::View::token() const
{
    const Node& node = doc_->nodes_[id_];
    DIOS_ASSERT(node.kind != Kind::kList, "token() on a list s-expression");
    const std::string_view store = node.kind == Kind::kAtom
                                       ? doc_->text_
                                       : std::string_view(doc_->decoded_);
    return store.substr(node.begin, node.size);
}

std::size_t
SexprDoc::View::size() const
{
    const Node& node = doc_->nodes_[id_];
    return node.kind == Kind::kList ? node.size : 0;
}

SexprDoc::View
SexprDoc::View::operator[](std::size_t i) const
{
    const Node& node = doc_->nodes_[id_];
    DIOS_ASSERT(node.kind == Kind::kList && i < node.size,
                "s-expression child index out of range");
    return View(doc_, doc_->kids_[node.begin + i]);
}

bool
SexprDoc::View::has_head(std::string_view head) const
{
    return is_list() && size() >= 1 && (*this)[0].is_atom() &&
           (*this)[0].token() == head;
}

std::optional<std::int64_t>
SexprDoc::View::integer() const
{
    if (!is_atom() || !token_is_integer(token())) {
        return std::nullopt;
    }
    return token_to_integer(token());
}

std::optional<double>
SexprDoc::View::number() const
{
    return is_atom() ? token_to_number(token()) : std::nullopt;
}

std::int64_t
SexprDoc::View::as_integer() const
{
    const std::optional<std::int64_t> v = integer();
    DIOS_ASSERT(v.has_value(), "as_integer() on non-integer atom");
    return *v;
}

double
SexprDoc::View::as_number() const
{
    const std::optional<double> v = number();
    DIOS_ASSERT(v.has_value(), "as_number() on non-numeric atom");
    return *v;
}

void
SexprDoc::View::write(SexprWriter& w) const
{
    // Recursion depth is bounded by kMaxSexprDepth.
    if (is_atom()) {
        w.atom(token());
        return;
    }
    w.open();
    for (std::size_t i = 0; i < size(); ++i) {
        (*this)[i].write(w);
    }
    w.close();
}

std::string
SexprDoc::View::to_string() const
{
    std::string out;
    out.reserve(doc_->text_.size());  // a flat rendering is rarely longer
    SexprWriter w(out);
    write(w);
    return out;
}

std::string
SexprDoc::View::to_pretty_string(int max_width) const
{
    // Flat length of every node, children before parents: node ids are
    // assigned in pre-order, so a reverse sweep sees children first.
    const std::vector<Node>& nodes = doc_->nodes_;
    std::vector<std::size_t> flat(nodes.size() - id_);
    for (std::size_t i = nodes.size(); i-- > id_;) {
        const Node& node = nodes[i];
        std::size_t& len = flat[i - id_];
        if (node.kind != Kind::kList) {
            len = written_length(View(doc_, static_cast<std::uint32_t>(i))
                                     .token());
            continue;
        }
        len = node.size == 0 ? 2 : 1 + node.size;  // parens and spaces
        for (std::uint32_t k = 0; k < node.size; ++k) {
            len += flat[doc_->kids_[node.begin + k] - id_];
        }
    }

    std::string out;
    struct Open {
        View list;
        std::size_t next;
        int indent;
    };
    std::vector<Open> open;
    auto visit = [&](View v, int indent) {
        if (v.is_atom() || static_cast<std::size_t>(indent) +
                                   flat[v.id_ - id_] <=
                               static_cast<std::size_t>(max_width)) {
            SexprWriter w(out);
            v.write(w);
        } else {
            out += '(';
            open.push_back({v, 0, indent});
        }
    };
    visit(*this, 0);
    while (!open.empty()) {
        Open& o = open.back();
        if (o.next == o.list.size()) {
            out += ')';
            open.pop_back();
            continue;
        }
        const int indent = o.indent + 2;
        if (o.next > 0) {
            out += '\n';
            out.append(static_cast<std::size_t>(indent), ' ');
        }
        visit(o.list[o.next++], indent);
    }
    return out;
}

// ---------------------------------------------------------------------------
// Sexpr
// ---------------------------------------------------------------------------

Sexpr
Sexpr::atom(std::string token)
{
    DIOS_CHECK(!token.empty(), "s-expression atom must be non-empty");
    Sexpr s;
    s.is_atom_ = true;
    s.token_ = std::move(token);
    return s;
}

Sexpr
Sexpr::string_atom(std::string text)
{
    Sexpr s;
    s.is_atom_ = true;
    s.token_ = std::move(text);
    return s;
}

Sexpr
Sexpr::list(std::vector<Sexpr> children)
{
    Sexpr s;
    s.is_atom_ = false;
    s.children_ = std::move(children);
    return s;
}

const std::string&
Sexpr::token() const
{
    DIOS_ASSERT(is_atom_, "token() on a list s-expression");
    return token_;
}

const std::vector<Sexpr>&
Sexpr::children() const
{
    DIOS_ASSERT(!is_atom_, "children() on an atom s-expression");
    return children_;
}

std::size_t
Sexpr::size() const
{
    return is_atom_ ? 0 : children_.size();
}

const Sexpr&
Sexpr::operator[](std::size_t i) const
{
    DIOS_ASSERT(!is_atom_ && i < children_.size(),
                "s-expression child index out of range");
    return children_[i];
}

bool
Sexpr::is_integer() const
{
    return is_atom_ && token_is_integer(token_);
}

std::int64_t
Sexpr::as_integer() const
{
    DIOS_ASSERT(is_integer(), "as_integer() on non-integer atom");
    return token_to_integer(token_);
}

bool
Sexpr::is_number() const
{
    return is_atom_ && token_to_number(token_).has_value();
}

double
Sexpr::as_number() const
{
    const std::optional<double> v =
        is_atom_ ? token_to_number(token_) : std::nullopt;
    DIOS_ASSERT(v.has_value(), "as_number() on non-numeric atom");
    return *v;
}

void
Sexpr::write(SexprWriter& w) const
{
    if (is_atom_) {
        w.atom(token_);
        return;
    }
    w.open();
    for (const Sexpr& child : children_) {
        child.write(w);
    }
    w.close();
}

std::string
Sexpr::to_string() const
{
    std::string out;
    SexprWriter w(out);
    write(w);
    return out;
}

bool
Sexpr::operator==(const Sexpr& other) const
{
    if (is_atom_ != other.is_atom_) {
        return false;
    }
    if (is_atom_) {
        return token_ == other.token_;
    }
    return children_ == other.children_;
}

namespace {

/** Copies a document node and its subtree into a tree. */
Sexpr
to_tree(SexprDoc::View view)
{
    // Recursion depth is bounded by kMaxSexprDepth.
    if (view.is_atom()) {
        return Sexpr::string_atom(std::string(view.token()));
    }
    std::vector<Sexpr> children;
    children.reserve(view.size());
    for (std::size_t i = 0; i < view.size(); ++i) {
        children.push_back(to_tree(view[i]));
    }
    return Sexpr::list(std::move(children));
}

}  // namespace

Sexpr
parse_sexpr(const std::string& text)
{
    return to_tree(SexprDoc(std::string_view(text)).root());
}

std::vector<Sexpr>
parse_sexpr_list(const std::string& text)
{
    const SexprDoc doc = SexprDoc::sequence(text);
    std::vector<Sexpr> out;
    out.reserve(doc.root_count());
    for (std::size_t i = 0; i < doc.root_count(); ++i) {
        out.push_back(to_tree(doc.root(i)));
    }
    return out;
}

}  // namespace diospyros
