// Daemon tests: the wire codec under hostile bytes (truncation,
// oversized lengths, checksum damage, bit flips — never a crash, never
// an allocation past the declared cap), protocol payload round-trips,
// and the live daemon end to end over a real Unix socket: compile,
// byte-identity vs a local compile, request dedup after a replay,
// status frames, malformed-frame rejection, and local fallback when no
// daemon is listening.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "compiler/driver.h"
#include "daemon/client.h"
#include "daemon/daemon.h"
#include "daemon/frame.h"
#include "daemon/protocol.h"
#include "machine/program.h"
#include "scalar/parse.h"
#include "service/serialize.h"
#include "strategy/strategy.h"
#include "support/error.h"
#include "support/sexpr.h"

namespace diospyros {
namespace {

namespace fs = std::filesystem;

using daemon::CompileRequest;
using daemon::CompileResponse;
using daemon::Frame;
using daemon::FrameDecoder;
using daemon::FrameError;
using daemon::FrameErrorKind;
using daemon::FrameType;
using daemon::RemoteClient;
using daemon::RemoteOptions;
using daemon::ResponseStatus;

const char* const kVaddText =
    "(kernel vadd4\n"
    "  (param n 4) (input A n) (input B n) (output C n)\n"
    "  (for i 0 n (store C i (+ (load A i) (load B i)))))\n";

CompilerOptions
test_options()
{
    CompilerOptions options;
    options.target.vector_width = 4;
    options.limits.iter_limit = 6;
    options.limits.node_limit = 20'000;
    options.limits.time_limit_seconds = 5.0;
    return options;
}

/** xorshift64* — deterministic fuzz bytes, no <random> variance. */
std::uint64_t
next_rand(std::uint64_t& state)
{
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state * 0x2545F4914F6CDD1DULL;
}

struct TempDir {
    fs::path path;
    explicit TempDir(const std::string& tag)
    {
        path = fs::temp_directory_path() /
               ("dios_daemon_test_" + tag + "_" +
                std::to_string(::getpid()));
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    std::string sock() const { return (path / "d.sock").string(); }
};

Frame
make_request_frame(std::uint64_t client_id, std::uint64_t seq)
{
    CompileRequest req;
    req.kernel_name = "vadd4";
    req.kernel_text = kVaddText;
    req.options = test_options();
    Frame frame;
    frame.type = FrameType::kCompileRequest;
    frame.client_id = client_id;
    frame.seq = seq;
    frame.payload = encode_compile_request(req);
    return frame;
}

/**
 * Sends one frame on a fresh connection and returns the first reply
 * frame (a default Frame, with a test failure, if the daemon hangs up).
 */
Frame
exchange(const std::string& sock, const Frame& request)
{
    const std::string wire = daemon::encode_frame(request);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EXPECT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, sock.c_str(), sizeof addr.sun_path - 1);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    std::size_t sent = 0;
    while (sent < wire.size()) {
        const ssize_t n = ::send(fd, wire.data() + sent, wire.size() - sent,
                                 MSG_NOSIGNAL);
        if (n <= 0) {
            ADD_FAILURE() << "send failed after " << sent << " bytes";
            break;
        }
        sent += static_cast<std::size_t>(n);
    }
    FrameDecoder decoder;
    Frame out;
    FrameError err;
    char buf[65536];
    for (;;) {
        if (decoder.poll(out, err) == FrameDecoder::Status::kFrame) {
            break;
        }
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0) {
            ADD_FAILURE() << "connection closed before a reply";
            break;
        }
        decoder.feed(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return out;
}

// ---------------------------------------------------------------------------
// Wire codec: round trip and hostile bytes
// ---------------------------------------------------------------------------

TEST(FrameCodec, RoundTripsAndStreamsMultipleFrames)
{
    Frame a;
    a.type = FrameType::kCompileRequest;
    a.client_id = 7;
    a.seq = 42;
    a.payload = "(hello)";
    Frame b;
    b.type = FrameType::kStatusRequest;
    b.client_id = 7;
    b.seq = 43;
    b.payload = "";

    const std::string wire = encode_frame(a) + encode_frame(b);
    FrameDecoder decoder;
    // Feed one byte at a time: every split point must be handled.
    Frame out;
    FrameError err;
    std::vector<Frame> frames;
    for (const char c : wire) {
        decoder.feed(&c, 1);
        while (decoder.poll(out, err) == FrameDecoder::Status::kFrame) {
            frames.push_back(out);
        }
    }
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0].type, FrameType::kCompileRequest);
    EXPECT_EQ(frames[0].client_id, 7u);
    EXPECT_EQ(frames[0].seq, 42u);
    EXPECT_EQ(frames[0].payload, "(hello)");
    EXPECT_EQ(frames[1].type, FrameType::kStatusRequest);
    EXPECT_EQ(frames[1].payload, "");
}

TEST(FrameCodec, TruncatedFrameStaysNeedMoreNeverCrashes)
{
    Frame a;
    a.type = FrameType::kCompileRequest;
    a.client_id = 1;
    a.seq = 1;
    a.payload = std::string(1000, 'x');
    const std::string wire = encode_frame(a);
    // Every truncation point: decoder reports kNeedMore, never kFrame.
    for (std::size_t cut = 0; cut + 1 < wire.size(); cut += 37) {
        FrameDecoder decoder;
        decoder.feed(wire.data(), cut);
        Frame out;
        FrameError err;
        EXPECT_EQ(decoder.poll(out, err), FrameDecoder::Status::kNeedMore)
            << "cut at " << cut;
    }
}

TEST(FrameCodec, OversizedLengthRejectedBeforePayloadAllocation)
{
    Frame a;
    a.type = FrameType::kCompileRequest;
    a.payload = "small";
    std::string wire = encode_frame(a);
    // Forge a hostile declared length (4 GiB-ish) into the header.
    const std::uint32_t hostile = 0xf0000000u;
    std::memcpy(&wire[28], &hostile, sizeof hostile);

    FrameDecoder decoder;
    decoder.feed(wire.data(), daemon::kHeaderSize);  // header only
    Frame out;
    FrameError err;
    EXPECT_EQ(decoder.poll(out, err), FrameDecoder::Status::kError);
    EXPECT_EQ(err.kind, FrameErrorKind::kOversized);
    // The decoder held only the header: it never allocated anything
    // approaching the declared length.
    EXPECT_LE(decoder.buffered(), daemon::kHeaderSize);
}

TEST(FrameCodec, BadMagicVersionTypeAndChecksumAreStructuredErrors)
{
    const Frame good = make_request_frame(1, 1);
    const std::string wire = encode_frame(good);

    struct Case {
        std::size_t offset;
        FrameErrorKind want;
    };
    const Case cases[] = {
        {0, FrameErrorKind::kBadMagic},      // magic byte
        {4, FrameErrorKind::kBadVersion},    // version field
        {8, FrameErrorKind::kBadType},       // type field
        {33, FrameErrorKind::kBadChecksum},  // checksum field
    };
    for (const Case& c : cases) {
        std::string damaged = wire;
        damaged[c.offset] = static_cast<char>(damaged[c.offset] ^ 0x5a);
        FrameDecoder decoder;
        decoder.feed(damaged.data(), damaged.size());
        Frame out;
        FrameError err;
        EXPECT_EQ(decoder.poll(out, err), FrameDecoder::Status::kError)
            << "offset " << c.offset;
        EXPECT_EQ(err.kind, c.want) << "offset " << c.offset;
        // Poisoned: further feeds are discarded, the error is sticky.
        decoder.feed(wire.data(), wire.size());
        EXPECT_EQ(decoder.poll(out, err), FrameDecoder::Status::kError);
    }
}

TEST(FrameCodec, PayloadBitFlipsAreCaughtByTheChecksum)
{
    const Frame good = make_request_frame(9, 9);
    const std::string wire = encode_frame(good);
    std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
    for (int trial = 0; trial < 64; ++trial) {
        std::string damaged = wire;
        const std::size_t pos =
            daemon::kHeaderSize +
            next_rand(rng) % (damaged.size() - daemon::kHeaderSize);
        const char bit = static_cast<char>(1u << (next_rand(rng) % 8));
        damaged[pos] = static_cast<char>(damaged[pos] ^ bit);
        FrameDecoder decoder;
        decoder.feed(damaged.data(), damaged.size());
        Frame out;
        FrameError err;
        EXPECT_EQ(decoder.poll(out, err), FrameDecoder::Status::kError)
            << "flip at " << pos;
        EXPECT_EQ(err.kind, FrameErrorKind::kBadChecksum);
    }
}

TEST(FrameCodec, RandomGarbageNeverCrashesAndNeverOverbuffers)
{
    std::uint64_t rng = 0xdeadbeefcafef00dULL;
    for (int trial = 0; trial < 256; ++trial) {
        const std::size_t len = 1 + next_rand(rng) % 4096;
        std::string garbage(len, '\0');
        for (char& c : garbage) {
            c = static_cast<char>(next_rand(rng) & 0xff);
        }
        FrameDecoder decoder;
        // Arbitrary chunking.
        std::size_t off = 0;
        while (off < garbage.size()) {
            const std::size_t chunk =
                std::min<std::size_t>(1 + next_rand(rng) % 97,
                                      garbage.size() - off);
            decoder.feed(garbage.data() + off, chunk);
            off += chunk;
            Frame out;
            FrameError err;
            while (decoder.poll(out, err) == FrameDecoder::Status::kFrame) {
            }
        }
        // The decoder never buffers more than it was fed, and a valid
        // header would have capped the pending frame at the protocol
        // limit.
        EXPECT_LE(decoder.buffered(), garbage.size());
        EXPECT_LE(decoder.buffered(),
                  daemon::kHeaderSize + daemon::kMaxPayloadLen);
    }
}

// ---------------------------------------------------------------------------
// Protocol payloads
// ---------------------------------------------------------------------------

TEST(Protocol, CompileRequestRoundTripsOptions)
{
    CompileRequest req;
    req.kernel_name = "dot4";
    req.kernel_text = "(kernel dot4 (param n 4))";
    req.options = test_options();
    req.options.rules.full_ac = true;
    req.options.target.has_reciprocal = true;
    req.options.validate = true;
    req.options.random_check = true;
    req.options.verify_ir = true;
    req.options.io_retries = 7;
    req.priority = service::Priority::kInteractive;
    req.submit_timeout_seconds = 1.5;

    const CompileRequest back =
        daemon::decode_compile_request(encode_compile_request(req));
    EXPECT_EQ(back.kernel_name, req.kernel_name);
    EXPECT_EQ(back.kernel_text, req.kernel_text);
    EXPECT_EQ(back.priority, service::Priority::kInteractive);
    EXPECT_DOUBLE_EQ(back.submit_timeout_seconds, 1.5);
    EXPECT_EQ(back.options.target.vector_width, 4);
    EXPECT_TRUE(back.options.rules.full_ac);
    EXPECT_TRUE(back.options.target.has_reciprocal);
    EXPECT_TRUE(back.options.rules.target_has_recip);  // sync() ran
    EXPECT_TRUE(back.options.validate);
    EXPECT_TRUE(back.options.verify_ir);
    EXPECT_EQ(back.options.io_retries, 7);
    EXPECT_EQ(back.options.limits.iter_limit, 6);
}

TEST(Protocol, RejectsUnsupportedWidthAtTheBoundary)
{
    CompileRequest req;
    req.kernel_name = "dot4";
    req.kernel_text = "(kernel dot4 (param n 4))";
    req.options = test_options();
    std::string wire = encode_compile_request(req);
    const std::string tag = "(width ";
    const std::size_t at = wire.find(tag);
    ASSERT_NE(at, std::string::npos);
    const std::size_t end = wire.find(')', at);
    for (const char* bad : {"0", "-4", "3", "32", "1024"}) {
        std::string mutated = wire;
        mutated.replace(at, end - at, tag + std::string(bad));
        EXPECT_THROW(daemon::decode_compile_request(mutated), UserError)
            << "width " << bad;
    }
    // Every in-range power of two decodes.
    for (const char* good : {"1", "2", "4", "8", "16"}) {
        std::string mutated = wire;
        mutated.replace(at, end - at, tag + std::string(good));
        const CompileRequest back =
            daemon::decode_compile_request(mutated);
        EXPECT_EQ(back.options.target.vector_width,
                  std::stoi(std::string(good)));
    }
}

TEST(Protocol, CompileResponseRoundTripsAllStatuses)
{
    CompileResponse shed;
    shed.status = ResponseStatus::kShed;
    shed.retry_after_ms = 125;
    shed.failure_class = FailureClass::kOverloaded;
    shed.error = "service overloaded";
    const CompileResponse shed_back = daemon::decode_compile_response(
        daemon::encode_compile_response(shed));
    EXPECT_EQ(shed_back.status, ResponseStatus::kShed);
    EXPECT_EQ(shed_back.retry_after_ms, 125u);
    EXPECT_EQ(shed_back.failure_class, FailureClass::kOverloaded);

    CompileResponse failed;
    failed.status = ResponseStatus::kFailed;
    failed.failure_class = FailureClass::kUser;
    failed.error = "bad kernel \"quoted\"";
    const CompileResponse failed_back = daemon::decode_compile_response(
        daemon::encode_compile_response(failed));
    EXPECT_EQ(failed_back.status, ResponseStatus::kFailed);
    EXPECT_EQ(failed_back.failure_class, FailureClass::kUser);
    EXPECT_EQ(failed_back.error, failed.error);
}

TEST(Protocol, MalformedPayloadsRaiseUserErrorNeverCrash)
{
    EXPECT_THROW(daemon::decode_compile_request("(((("), UserError);
    EXPECT_THROW(daemon::decode_compile_request("(not-a-request)"),
                 UserError);
    EXPECT_THROW(daemon::decode_compile_request("(compile-request)"),
                 UserError);
    EXPECT_THROW(daemon::decode_compile_response("(compile-response)"),
                 UserError);
    EXPECT_THROW(
        daemon::decode_compile_response(
            "(compile-response (status ok))"),  // ok without an entry
        UserError);
}

/** One payload decoder under mutation: decode, then re-encode. */
using Decoder = std::string (*)(const std::string&);

std::string
request_round_trip(const std::string& payload)
{
    return encode_compile_request(daemon::decode_compile_request(payload));
}

std::string
response_round_trip(const std::string& payload)
{
    return daemon::encode_compile_response(
        daemon::decode_compile_response(payload));
}

/**
 * Runs `decode` on `mutant`. A malformed payload must raise UserError;
 * anything else that escapes is a failure. Returns the re-encoding of a
 * payload that decoded, nullopt for one that was rejected.
 */
std::optional<std::string>
decode_or_reject(Decoder decode, const std::string& mutant,
                 const std::string& what)
{
    try {
        return decode(mutant);
    } catch (const UserError&) {
        return std::nullopt;
    } catch (const std::exception& e) {
        ADD_FAILURE() << what << ": " << e.what();
        return std::nullopt;
    }
}

/** The canonical text of each field of the record `(head field...)`. */
std::vector<std::string>
record_fields(const std::string& payload, const std::string& head)
{
    const SexprDoc doc(payload);
    std::vector<std::string> fields;
    std::vector<SexprDoc::View> todo = {doc.root()};
    while (!todo.empty()) {
        const SexprDoc::View v = todo.back();
        todo.pop_back();
        if (v.has_head(head)) {
            for (std::size_t i = 1; i < v.size(); ++i) {
                fields.push_back(v[i].to_string());
            }
            return fields;
        }
        for (std::size_t i = 0; i < v.size(); ++i) {
            todo.push_back(v[i]);
        }
    }
    ADD_FAILURE() << "no (" << head << " ...) record";
    return fields;
}

/** [begin, end) of every atom and every non-root list of canonical text. */
void
node_spans(const std::string& text,
           std::vector<std::pair<std::size_t, std::size_t>>& atoms,
           std::vector<std::pair<std::size_t, std::size_t>>& lists)
{
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < text.size();) {
        const char c = text[i];
        if (c == ' ') {
            ++i;
        } else if (c == '(') {
            open.push_back(i++);
        } else if (c == ')') {
            if (open.size() > 1) {
                lists.emplace_back(open.back(), i + 1);
            }
            open.pop_back();
            ++i;
        } else if (c == '"') {
            std::size_t j = i + 1;
            while (text[j] != '"') {
                j += text[j] == '\\' ? 2 : 1;
            }
            atoms.emplace_back(i, j + 1);
            i = j + 1;
        } else {
            std::size_t j = i;
            while (j < text.size() && text[j] != ' ' && text[j] != '(' &&
                   text[j] != ')') {
                ++j;
            }
            atoms.emplace_back(i, j);
            i = j;
        }
    }
}

/**
 * Seeded, deterministic mutations of one encoded payload: truncation at
 * every offset, bit flips, byte splices, every atom turned into a list
 * and every list into an atom, duplicated fields (which must decode to
 * the same value: the last copy wins) and unknown fields in every record
 * (which must be skipped).
 */
void
fuzz_payload(Decoder decode, const std::string& payload,
             const std::vector<std::string>& records, std::uint64_t seed)
{
    ASSERT_EQ(decode(payload), payload);
    std::uint64_t rng = seed;
    std::size_t rejected = 0;
    for (std::size_t n = 0; n < payload.size(); ++n) {
        if (!decode_or_reject(decode, payload.substr(0, n),
                              "truncated at " + std::to_string(n))) {
            ++rejected;
        }
    }
    EXPECT_EQ(rejected, payload.size());  // no proper prefix is a payload

    for (int trial = 0; trial < 2000; ++trial) {
        std::string mutant = payload;
        const std::size_t at = next_rand(rng) % mutant.size();
        mutant[at] = static_cast<char>(mutant[at] ^ (1 << (trial % 8)));
        decode_or_reject(decode, mutant,
                         "bit flip at " + std::to_string(at));
    }
    for (int trial = 0; trial < 1000; ++trial) {
        const std::size_t from = next_rand(rng) % payload.size();
        const std::size_t len = 1 + next_rand(rng) % 64;
        const std::size_t to = next_rand(rng) % payload.size();
        std::string mutant = payload;
        const std::string piece = payload.substr(from, len);
        if (trial % 2 == 0) {
            mutant.insert(to, piece);
        } else {
            mutant.replace(to, piece.size(), piece);
        }
        decode_or_reject(decode, mutant,
                         "splice of " + std::to_string(from) + "+" +
                             std::to_string(len) + " at " +
                             std::to_string(to));
    }

    std::vector<std::pair<std::size_t, std::size_t>> atoms, lists;
    node_spans(payload, atoms, lists);
    for (const auto& [begin, end] : atoms) {
        std::string mutant = payload;
        mutant.insert(end, ")");
        mutant.insert(begin, "(");
        decode_or_reject(decode, mutant,
                         "atom as list at " + std::to_string(begin));
    }
    for (const auto& [begin, end] : lists) {
        std::string mutant = payload;
        mutant.replace(begin, end - begin, "x");
        decode_or_reject(decode, mutant,
                         "list as atom at " + std::to_string(begin));
    }

    const std::string unknown = "(zz-unknown-field 1 (nested \"x y\") ())";
    for (const std::string& head : records) {
        const std::string open = "(" + head + " ";
        const std::size_t at = payload.find(open);
        ASSERT_NE(at, std::string::npos) << head;
        std::string mutant = payload;
        mutant.insert(at + open.size(), unknown + " ");
        EXPECT_EQ(decode_or_reject(decode, mutant, "unknown in " + head),
                  payload)
            << "unknown field in (" << head << " ...) was not skipped";
    }
    for (const std::string& field : record_fields(payload, records[0])) {
        const std::size_t at = payload.find(field);
        ASSERT_NE(at, std::string::npos);
        std::string mutant = payload;
        mutant.insert(at + field.size(), " " + field);
        EXPECT_EQ(decode_or_reject(decode, mutant, "duplicate " + field),
                  payload)
            << "duplicated field " << field.substr(0, 40);
    }
}

TEST(Protocol, MutatedPayloadsDecodeOrRaiseUserErrorNeverCrash)
{
    CompileRequest req;
    req.kernel_name = "vadd4";
    req.kernel_text = kVaddText;
    req.options = test_options();
    req.options.strategy = strategy::builtin_phased();
    req.priority = service::Priority::kInteractive;
    req.submit_timeout_seconds = 0.25;
    fuzz_payload(&request_round_trip, encode_compile_request(req),
                 {"compile-request", "options"}, 0x5eed0001ULL);

    const scalar::Kernel kernel = scalar::parse_kernel(kVaddText);
    const CompilerOptions options = test_options();
    const CompileResult local = compile_kernel_resilient(kernel, options);
    ASSERT_TRUE(local.ok);
    CompileResponse resp;
    resp.status = ResponseStatus::kOk;
    resp.error = "note: \"quoted\"\n";
    resp.entry = service::make_entry(
        service::compute_cache_key(kernel, options), options,
        *local.compiled);
    fuzz_payload(&response_round_trip, daemon::encode_compile_response(resp),
                 {"compile-response", "dios-cache-entry", "report", "machine"},
                 0x5eed0002ULL);
}

// ---------------------------------------------------------------------------
// Live daemon end to end
// ---------------------------------------------------------------------------

TEST(DaemonEndToEnd, RemoteCompileIsByteIdenticalToLocal)
{
    TempDir dir("e2e");
    daemon::DaemonOptions dopts;
    dopts.socket_path = dir.sock();
    dopts.service.jobs = 1;
    dopts.service.cache_dir = (dir.path / "cache").string();
    daemon::Daemon d(dopts);
    d.start();

    const scalar::Kernel kernel = scalar::parse_kernel(kVaddText);
    const CompilerOptions options = test_options();

    RemoteOptions ropts;
    ropts.socket_path = dir.sock();
    ropts.jitter_seed = 1;
    RemoteClient client(ropts);
    CompileRequest req;
    req.kernel_name = kernel.name;
    req.kernel_text = kVaddText;
    req.options = options;
    const auto resp = client.compile(req);
    ASSERT_TRUE(resp.has_value());
    ASSERT_EQ(resp->status, ResponseStatus::kOk);
    const CompiledKernel remote =
        service::compiled_from_entry(kernel, *resp->entry);

    const CompileResult local = compile_kernel_resilient(kernel, options);
    ASSERT_TRUE(local.ok);
    EXPECT_EQ(remote.c_source, local.compiled->c_source);
    EXPECT_EQ(disassemble(remote.machine, options.target.vector_width),
              disassemble(local.compiled->machine,
                          options.target.vector_width));

    d.shutdown();
}

TEST(DaemonEndToEnd, ReplayedFrameIsServedFromDedupNotRecompiled)
{
    TempDir dir("dedup");
    daemon::DaemonOptions dopts;
    dopts.socket_path = dir.sock();
    dopts.service.jobs = 1;
    daemon::Daemon d(dopts);
    d.start();

    // Speak the protocol by hand so the exact same (client_id, seq)
    // frame goes out twice — what a retry after a torn reply does.
    const Frame request = make_request_frame(0xc11e47, 1);
    const Frame first = exchange(dir.sock(), request);
    // Replay on a NEW connection.
    const Frame second = exchange(dir.sock(), request);
    EXPECT_EQ(first.type, FrameType::kCompileResponse);
    EXPECT_EQ(second.type, FrameType::kCompileResponse);
    // Identical recorded bytes, and the daemon counted a dedup hit
    // instead of compiling twice.
    EXPECT_EQ(first.payload, second.payload);
    EXPECT_EQ(d.dedup_hits(), 1u);
    EXPECT_EQ(d.remote_requests(), 2u);

    const std::string status = d.status_json();
    EXPECT_NE(status.find("\"dedup_hits\":1"), std::string::npos);
    EXPECT_NE(status.find("\"uptime_seconds\":"), std::string::npos);

    d.shutdown();
}

TEST(DaemonEndToEnd, MalformedFramesAreRejectedWithoutCrashing)
{
    TempDir dir("reject");
    daemon::DaemonOptions dopts;
    dopts.socket_path = dir.sock();
    dopts.service.jobs = 1;
    dopts.read_deadline_seconds = 0.5;
    daemon::Daemon d(dopts);
    d.start();

    auto open_conn = [&]() -> int {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        EXPECT_GE(fd, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, dir.sock().c_str(),
                     sizeof addr.sun_path - 1);
        EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                            sizeof addr),
                  0);
        return fd;
    };
    auto drain_until_closed = [](int fd) {
        char buf[4096];
        while (::recv(fd, buf, sizeof buf, 0) > 0) {
        }
        ::close(fd);
    };

    // Garbage covering a full header: rejected instantly (bad magic),
    // error frame sent, connection dropped.
    const int fd = open_conn();
    const std::string garbage(64, '!');
    ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(garbage.size()));
    drain_until_closed(fd);
    EXPECT_GE(d.frames_rejected(), 1u);

    // A torn frame whose sender stalls: the read deadline frees the
    // handler thread and counts the stall.
    const std::uint64_t rejected_before = d.frames_rejected();
    const int torn = open_conn();
    const std::string partial = "DIOS";  // header prefix, then silence
    ASSERT_EQ(::send(torn, partial.data(), partial.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(partial.size()));
    drain_until_closed(torn);  // daemon closes at the deadline
    EXPECT_GT(d.frames_rejected(), rejected_before);

    RemoteOptions ropts;
    ropts.socket_path = dir.sock();
    ropts.jitter_seed = 2;
    RemoteClient client(ropts);
    CompileRequest req;
    req.kernel_name = "vadd4";
    req.kernel_text = kVaddText;
    req.options = test_options();
    const auto resp = client.compile(req);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status, ResponseStatus::kOk);

    d.shutdown();
}

TEST(DaemonEndToEnd, DeeplyNestedPayloadsFailAsUserErrorsAndServingGoesOn)
{
    TempDir dir("deep");
    daemon::DaemonOptions dopts;
    dopts.socket_path = dir.sock();
    dopts.service.jobs = 1;
    daemon::Daemon d(dopts);
    d.start();

    // A million-deep request payload: within the frame cap, far past the
    // s-expression nesting cap.
    Frame deep_frame;
    deep_frame.type = FrameType::kCompileRequest;
    deep_frame.client_id = 0xdee9;
    deep_frame.seq = 1;
    deep_frame.payload = std::string(1'000'000, '(');
    const Frame reply = exchange(dir.sock(), deep_frame);
    ASSERT_EQ(reply.type, FrameType::kCompileResponse);
    const CompileResponse deep_resp =
        daemon::decode_compile_response(reply.payload);
    EXPECT_EQ(deep_resp.status, ResponseStatus::kFailed);
    EXPECT_EQ(deep_resp.failure_class, FailureClass::kUser);

    // A well-formed request whose kernel text nests 100000 levels deep.
    std::string text;
    text.reserve(100'000 * 8);
    text += "(kernel deep (param n 4) (input A n) (output C n)\n"
            "  (for i 0 n (store C i ";
    for (int i = 0; i < 100'000; ++i) {
        text += "(+ ";
    }
    text += "(load A i)";
    for (int i = 0; i < 100'000; ++i) {
        text += " 1)";
    }
    text += ")))\n";
    RemoteOptions ropts;
    ropts.socket_path = dir.sock();
    ropts.jitter_seed = 4;
    RemoteClient client(ropts);
    CompileRequest req;
    req.kernel_name = "deep";
    req.kernel_text = text;
    req.options = test_options();
    const auto kernel_resp = client.compile(req);
    ASSERT_TRUE(kernel_resp.has_value());
    EXPECT_EQ(kernel_resp->status, ResponseStatus::kFailed);
    EXPECT_EQ(kernel_resp->failure_class, FailureClass::kUser);

    // The daemon is still up and still compiles.
    req.kernel_name = "vadd4";
    req.kernel_text = kVaddText;
    const auto ok = client.compile(req);
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(ok->status, ResponseStatus::kOk);
    EXPECT_TRUE(d.running());

    d.shutdown();
}

TEST(DaemonEndToEnd, SecondDaemonOnTheSameSocketIsRefused)
{
    TempDir dir("lock");
    daemon::DaemonOptions dopts;
    dopts.socket_path = dir.sock();
    dopts.service.jobs = 1;
    daemon::Daemon first(dopts);
    first.start();

    daemon::Daemon second(dopts);
    EXPECT_THROW(second.start(), UserError);

    first.shutdown();
    // With the first daemon gone (flock released, socket unlinked), the
    // same socket is takeoverable.
    daemon::Daemon third(dopts);
    third.start();
    EXPECT_TRUE(third.running());
    third.shutdown();
}

TEST(RemoteClientFallback, UnreachableSocketReturnsNulloptQuickly)
{
    RemoteOptions ropts;
    ropts.socket_path = "/tmp/dios_daemon_test_no_such_socket.sock";
    ropts.max_attempts = 2;
    ropts.backoff_initial_ms = 1.0;
    ropts.backoff_max_ms = 2.0;
    ropts.jitter_seed = 3;
    RemoteClient client(ropts);
    CompileRequest req;
    req.kernel_name = "vadd4";
    req.kernel_text = kVaddText;
    req.options = test_options();
    const auto resp = client.compile(req);
    EXPECT_FALSE(resp.has_value());
    EXPECT_EQ(client.counters().remote_fallback_local, 1u);
    EXPECT_EQ(client.counters().remote_retries, 1u);
    EXPECT_FALSE(client.status().has_value());
}

}  // namespace
}  // namespace diospyros
