#include "daemon/daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/file.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "daemon/protocol.h"
#include "scalar/parse.h"
#include "support/error.h"

namespace diospyros::daemon {

namespace {

double
seconds_since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

}  // namespace

Daemon::Daemon(DaemonOptions options) : options_(std::move(options)) {}

Daemon::~Daemon()
{
    if (running_.load()) {
        shutdown(service::DrainMode::kShed);
    }
}

void
Daemon::start()
{
    DIOS_CHECK(!running_.load(), "daemon already started");
    sockaddr_un addr{};
    DIOS_CHECK(options_.socket_path.size() + 1 <= sizeof addr.sun_path,
               "socket path too long for a Unix socket: '" +
                   options_.socket_path + "'");

    // Singleton lock. flock is released by the kernel when the holder
    // dies, so a failed non-blocking acquire means a *live* daemon owns
    // this socket; a successful acquire over an existing pid file is a
    // dead-pid takeover and the stale socket is safe to unlink.
    const std::string pid_path = options_.socket_path + ".pid";
    pidfile_fd_ =
        ::open(pid_path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (pidfile_fd_ < 0) {
        detail::raise_user("cannot open pid file '" + pid_path +
                           "': " + std::strerror(errno));
    }
    if (::flock(pidfile_fd_, LOCK_EX | LOCK_NB) != 0) {
        char buf[32] = {0};
        const ssize_t n = ::pread(pidfile_fd_, buf, sizeof buf - 1, 0);
        ::close(pidfile_fd_);
        pidfile_fd_ = -1;
        detail::raise_user(
            "a live diosd already serves '" + options_.socket_path +
            "' (pid " + std::string(n > 0 ? buf : "unknown") + ")");
    }
    const std::string pid_text = std::to_string(::getpid());
    if (::ftruncate(pidfile_fd_, 0) != 0 ||
        ::pwrite(pidfile_fd_, pid_text.data(), pid_text.size(), 0) < 0) {
        // Best-effort: the flock, not the text, is the actual mutex.
    }
    ::unlink(options_.socket_path.c_str());

    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
        detail::raise_user(std::string("cannot create socket: ") +
                           std::strerror(errno));
    }
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, options_.socket_path.c_str(),
                 sizeof addr.sun_path - 1);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) != 0 ||
        ::listen(listen_fd_, 64) != 0) {
        const std::string why = std::strerror(errno);
        ::close(listen_fd_);
        listen_fd_ = -1;
        detail::raise_user("cannot bind '" + options_.socket_path +
                           "': " + why);
    }

    service_ =
        std::make_unique<service::CompileService>(options_.service);
    start_time_ = std::chrono::steady_clock::now();
    stopping_.store(false);
    running_.store(true);
    accept_thread_ = std::thread([this] { accept_loop(); });
}

void
Daemon::shutdown(service::DrainMode mode)
{
    if (!running_.exchange(false)) {
        return;
    }
    stopping_.store(true);
    // The accept loop polls listen_fd_ with a 100 ms timeout and sees
    // stopping_; close the socket only after it has exited.
    if (accept_thread_.joinable()) {
        accept_thread_.join();
    }
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }

    // Drain: finish queued work, but never unboundedly — a watchdog
    // escalates to kShed at the drain deadline (drain is idempotent and
    // concurrent-safe; the second call sheds whatever is still queued).
    if (service_) {
        std::atomic<bool> drained{false};
        std::thread watchdog;
        if (mode == service::DrainMode::kFinish &&
            options_.drain_deadline_seconds > 0) {
            watchdog = std::thread([this, &drained] {
                const auto t0 = std::chrono::steady_clock::now();
                while (!drained.load() &&
                       seconds_since(t0) < options_.drain_deadline_seconds) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(20));
                }
                if (!drained.load()) {
                    service_->drain(service::DrainMode::kShed);
                }
            });
        }
        service_->drain(mode);
        drained.store(true);
        if (watchdog.joinable()) {
            watchdog.join();
        }
    }

    // Handlers see stopping_ (or their resolved futures) and exit.
    reap_connections(/*join_all=*/true);

    ::unlink(options_.socket_path.c_str());
    if (pidfile_fd_ >= 0) {
        ::unlink((options_.socket_path + ".pid").c_str());
        ::close(pidfile_fd_);  // releases the flock
        pidfile_fd_ = -1;
    }
}

std::string
Daemon::status_json() const
{
    service::ServiceMetrics m;
    if (service_) {
        m = service_->metrics();
        m.uptime_seconds = seconds_since(start_time_);
    }
    m.remote_requests = remote_requests_.load();
    m.frames_rejected = frames_rejected_.load();
    m.dedup_hits = dedup_hits_.load();
    return m.to_json();
}

void
Daemon::accept_loop()
{
    while (!stopping_.load()) {
        pollfd p{};
        p.fd = listen_fd_;
        p.events = POLLIN;
        const int r = ::poll(&p, 1, 100);
        if (r < 0 && errno != EINTR) {
            break;
        }
        if (r <= 0) {
            reap_connections(/*join_all=*/false);
            continue;
        }
        const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
        if (fd < 0) {
            continue;
        }
        auto conn = std::make_unique<Connection>();
        Connection* raw = conn.get();
        raw->thread = std::thread([this, raw, fd] {
            handle_connection(fd);
            raw->done.store(true);
        });
        std::lock_guard<std::mutex> lock(conn_mu_);
        connections_.push_back(std::move(conn));
    }
}

void
Daemon::reap_connections(bool join_all)
{
    std::vector<std::unique_ptr<Connection>> dead;
    {
        std::lock_guard<std::mutex> lock(conn_mu_);
        auto it = connections_.begin();
        while (it != connections_.end()) {
            if (join_all || (*it)->done.load()) {
                dead.push_back(std::move(*it));
                it = connections_.erase(it);
            } else {
                ++it;
            }
        }
    }
    for (auto& conn : dead) {
        if (conn->thread.joinable()) {
            conn->thread.join();
        }
    }
}

void
Daemon::handle_connection(int fd)
{
    FrameDecoder decoder;
    auto last_progress = std::chrono::steady_clock::now();
    char buf[65536];
    for (;;) {
        if (stopping_.load()) {
            break;
        }
        Frame frame;
        FrameError err;
        const FrameDecoder::Status st = decoder.poll(frame, err);
        if (st == FrameDecoder::Status::kFrame) {
            if (!handle_frame(fd, frame)) {
                break;
            }
            last_progress = std::chrono::steady_clock::now();
            continue;
        }
        if (st == FrameDecoder::Status::kError) {
            frames_rejected_.fetch_add(1);
            Frame ef;
            ef.type = FrameType::kError;
            ef.payload = encode_error_payload(frame_error_name(err.kind),
                                              err.detail);
            send_all(fd, encode_frame(ef));  // best-effort courtesy
            break;
        }
        pollfd p{};
        p.fd = fd;
        p.events = POLLIN;
        const int r = ::poll(&p, 1, 100);
        if (r < 0) {
            if (errno == EINTR) {
                continue;
            }
            break;
        }
        if (r == 0) {
            if (seconds_since(last_progress) >
                options_.read_deadline_seconds) {
                if (decoder.mid_frame()) {
                    // A torn frame whose sender went away: count it so
                    // health checks see the stall, then free the thread.
                    frames_rejected_.fetch_add(1);
                }
                break;
            }
            continue;
        }
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0) {
            break;  // peer closed (possibly mid-frame) or hard error
        }
        decoder.feed(buf, static_cast<std::size_t>(n));
        last_progress = std::chrono::steady_clock::now();
    }
    ::close(fd);
}

bool
Daemon::handle_frame(int fd, const Frame& frame)
{
    if (frame.type == FrameType::kStatusRequest) {
        Frame reply;
        reply.type = FrameType::kStatusResponse;
        reply.client_id = frame.client_id;
        reply.seq = frame.seq;
        reply.payload = status_json();
        return send_all(fd, encode_frame(reply));
    }
    if (frame.type != FrameType::kCompileRequest) {
        // Server-to-client frame types arriving here are a protocol
        // violation, not a recoverable state.
        frames_rejected_.fetch_add(1);
        Frame ef;
        ef.type = FrameType::kError;
        ef.client_id = frame.client_id;
        ef.seq = frame.seq;
        ef.payload = encode_error_payload(
            "bad-type", "client sent a server-only frame type");
        send_all(fd, encode_frame(ef));
        return false;
    }

    remote_requests_.fetch_add(1);
    const std::pair<std::uint64_t, std::uint64_t> key{frame.client_id,
                                                      frame.seq};
    {
        // A retried frame after a torn reply: serve the identical
        // recorded bytes, never a second compile.
        std::lock_guard<std::mutex> lock(dedup_mu_);
        const auto it = dedup_.find(key);
        if (it != dedup_.end()) {
            dedup_hits_.fetch_add(1);
            for (auto lit = dedup_lru_.begin(); lit != dedup_lru_.end();
                 ++lit) {
                if (*lit == key) {
                    dedup_lru_.splice(dedup_lru_.end(), dedup_lru_, lit);
                    break;
                }
            }
            const std::string bytes = it->second;
            return send_all(fd, bytes);
        }
    }

    std::string reply_bytes;
    try {
        const CompileRequest req = decode_compile_request(frame.payload);
        const scalar::Kernel kernel =
            scalar::parse_kernel(req.kernel_text);
        service::SubmitOptions sopts;
        sopts.priority = req.priority;
        sopts.submit_timeout_seconds = req.submit_timeout_seconds;
        service::Ticket ticket =
            service_->submit(kernel, req.options, sopts);
        const service::ResultPtr result = ticket.future.get();

        CompileResponse resp;
        resp.failure_class = result->failure_class;
        resp.error = result->error;
        if (result->ok) {
            resp.status = ResponseStatus::kOk;
            resp.entry = service::make_entry(ticket.key(), req.options,
                                             *result->compiled);
        } else if (result->failure_class == FailureClass::kOverloaded) {
            resp.status = ResponseStatus::kShed;
            resp.retry_after_ms = ticket.retry_after_ms();
        } else {
            resp.status = ResponseStatus::kFailed;
        }
        Frame reply;
        reply.type = FrameType::kCompileResponse;
        reply.client_id = frame.client_id;
        reply.seq = frame.seq;
        reply.payload = encode_compile_response(resp);
        reply_bytes = encode_frame(reply);
    } catch (const UserError& e) {
        // Malformed payload / unparseable kernel: the same structured
        // failure a local compile of that input would produce.
        CompileResponse resp;
        resp.status = ResponseStatus::kFailed;
        resp.failure_class = FailureClass::kUser;
        resp.error = e.what();
        Frame reply;
        reply.type = FrameType::kCompileResponse;
        reply.client_id = frame.client_id;
        reply.seq = frame.seq;
        reply.payload = encode_compile_response(resp);
        reply_bytes = encode_frame(reply);
    } catch (const std::exception& e) {
        CompileResponse resp;
        resp.status = ResponseStatus::kFailed;
        resp.failure_class = FailureClass::kInternal;
        resp.error = e.what();
        Frame reply;
        reply.type = FrameType::kCompileResponse;
        reply.client_id = frame.client_id;
        reply.seq = frame.seq;
        reply.payload = encode_compile_response(resp);
        reply_bytes = encode_frame(reply);
    }

    {
        // Record *before* sending: if the send tears, the retry is a
        // dedup hit with the identical bytes.
        std::lock_guard<std::mutex> lock(dedup_mu_);
        const auto [it, fresh] = dedup_.try_emplace(key, reply_bytes);
        if (fresh) {
            dedup_lru_.push_back(key);
            if (dedup_lru_.size() > options_.dedup_capacity) {
                dedup_.erase(dedup_lru_.front());
                dedup_lru_.pop_front();
            }
        }
    }
    return send_all(fd, reply_bytes);
}

bool
Daemon::send_all(int fd, const std::string& bytes)
{
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                                 MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            return false;  // peer gone; its retry dedups
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

}  // namespace diospyros::daemon
