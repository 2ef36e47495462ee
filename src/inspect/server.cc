#include "inspect/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstring>

namespace ultra::inspect
{

namespace
{

bool
allDigits(const std::string &s)
{
    if (s.empty())
        return false;
    for (char c : s) {
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return false;
    }
    return true;
}

/** Create the listening (or, for the client, connected) socket for the
 *  shared address grammar; -1 + err on failure. */
int
openSocket(const std::string &addr, bool listening, std::string &where,
           std::uint16_t &port, std::string &unlink_path,
           std::string &err)
{
    where = addr;
    port = 0;
    unlink_path.clear();
    if (allDigits(addr)) {
        const unsigned long parsed = std::strtoul(addr.c_str(), nullptr, 10);
        if (parsed > 65535) {
            err = "port out of range: " + addr;
            return -1;
        }
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) {
            err = std::strerror(errno);
            return -1;
        }
        sockaddr_in sin{};
        sin.sin_family = AF_INET;
        sin.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        sin.sin_port = htons(static_cast<std::uint16_t>(parsed));
        if (listening) {
            const int one = 1;
            ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
            if (::bind(fd, reinterpret_cast<sockaddr *>(&sin),
                       sizeof sin) != 0 ||
                ::listen(fd, 1) != 0) {
                err = std::strerror(errno);
                ::close(fd);
                return -1;
            }
            socklen_t len = sizeof sin;
            ::getsockname(fd, reinterpret_cast<sockaddr *>(&sin), &len);
        } else if (::connect(fd, reinterpret_cast<sockaddr *>(&sin),
                             sizeof sin) != 0) {
            err = std::strerror(errno);
            ::close(fd);
            return -1;
        }
        port = ntohs(sin.sin_port);
        where = "127.0.0.1:" + std::to_string(port);
        return fd;
    }
    sockaddr_un sun{};
    if (addr.size() >= sizeof sun.sun_path) {
        err = "unix socket path too long: " + addr;
        return -1;
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        err = std::strerror(errno);
        return -1;
    }
    sun.sun_family = AF_UNIX;
    std::strncpy(sun.sun_path, addr.c_str(), sizeof sun.sun_path - 1);
    if (listening) {
        ::unlink(addr.c_str()); // a stale socket file blocks bind()
        if (::bind(fd, reinterpret_cast<sockaddr *>(&sun), sizeof sun) !=
                0 ||
            ::listen(fd, 1) != 0) {
            err = std::strerror(errno);
            ::close(fd);
            return -1;
        }
        unlink_path = addr;
    } else if (::connect(fd, reinterpret_cast<sockaddr *>(&sun),
                         sizeof sun) != 0) {
        err = std::strerror(errno);
        ::close(fd);
        return -1;
    }
    return fd;
}

} // namespace

// ------------------------------------------------------------------
// InspectServer
// ------------------------------------------------------------------

std::unique_ptr<InspectServer>
InspectServer::listen(const std::string &addr, std::string &err)
{
    std::string where;
    std::uint16_t port = 0;
    std::string unlink_path;
    const int fd =
        openSocket(addr, true, where, port, unlink_path, err);
    if (fd < 0)
        return nullptr;
    return std::unique_ptr<InspectServer>(
        new InspectServer(fd, std::move(where), port,
                          std::move(unlink_path)));
}

InspectServer::InspectServer(int listen_fd, std::string where,
                             std::uint16_t port, std::string unlink_path)
    : where_(std::move(where)), port_(port),
      unlinkPath_(std::move(unlink_path)), listenFd_(listen_fd)
{
}

InspectServer::~InspectServer()
{
    if (clientFd_ >= 0)
        ::close(clientFd_);
    ::close(listenFd_);
    if (!unlinkPath_.empty())
        ::unlink(unlinkPath_.c_str());
}

void
InspectServer::pump(int timeout_ms)
{
    for (;;) {
        const bool attached = clientFd_ >= 0;
        pollfd pfd{attached ? clientFd_ : listenFd_, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, timeout_ms);
        if (ready < 0 && errno == EINTR)
            continue;
        if (ready <= 0)
            return;
        // Something arrived: drain the rest without waiting.
        timeout_ms = 0;
        if (!attached) {
            const int accepted = ::accept(listenFd_, nullptr, nullptr);
            if (accepted < 0) {
                if (errno == EINTR)
                    continue;
                return; // e.g. the connection was reset before accept()
            }
            clientFd_ = accepted;
            continue;
        }
        char chunk[4096];
        const ssize_t n = ::read(clientFd_, chunk, sizeof chunk);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            ::close(clientFd_);
            clientFd_ = -1;
            partial_.clear();
            ++disconnects_;
            continue; // a waiting client may be accepted at once
        }
        partial_.append(chunk, static_cast<std::size_t>(n));
        std::size_t start = 0;
        for (;;) {
            const std::size_t nl = partial_.find('\n', start);
            if (nl == std::string::npos)
                break;
            std::string line = partial_.substr(start, nl - start);
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            start = nl + 1;
            if (!line.empty())
                lines_.push_back(std::move(line));
        }
        partial_.erase(0, start);
    }
}

bool
InspectServer::connected()
{
    pump(0);
    return clientFd_ >= 0;
}

unsigned
InspectServer::takeDisconnects()
{
    pump(0);
    const unsigned fresh = disconnects_ - disconnectsTaken_;
    disconnectsTaken_ = disconnects_;
    return fresh;
}

bool
InspectServer::poll(std::string &line)
{
    pump(0);
    if (lines_.empty())
        return false;
    line = std::move(lines_.front());
    lines_.pop_front();
    return true;
}

bool
InspectServer::wait(std::string &line)
{
    // Compare against the consumed count, not a snapshot taken here: a
    // hang-up that lands between two waits must still end the pause.
    while (lines_.empty() && disconnects_ == disconnectsTaken_)
        pump(-1);
    if (!lines_.empty()) {
        line = std::move(lines_.front());
        lines_.pop_front();
        return true;
    }
    disconnectsTaken_ = disconnects_;
    return false; // disconnect: caller resumes the sim
}

void
InspectServer::send(const std::string &line)
{
    if (clientFd_ < 0)
        return;
    std::string framed = line;
    framed.push_back('\n');
    std::size_t off = 0;
    while (off < framed.size()) {
        // MSG_NOSIGNAL: a peer that vanished mid-job must surface as
        // EPIPE here, not as a process-killing SIGPIPE.
        const ssize_t n = ::send(clientFd_, framed.data() + off,
                                 framed.size() - off, MSG_NOSIGNAL);
        if (n <= 0)
            break; // peer gone; the next pump notices
        off += static_cast<std::size_t>(n);
    }
}

// ------------------------------------------------------------------
// InspectClient
// ------------------------------------------------------------------

std::unique_ptr<InspectClient>
InspectClient::connect(const std::string &addr, std::string &err)
{
    std::string where;
    std::uint16_t port = 0;
    std::string unlink_path;
    const int fd =
        openSocket(addr, false, where, port, unlink_path, err);
    if (fd < 0)
        return nullptr;
    return std::unique_ptr<InspectClient>(new InspectClient(fd));
}

InspectClient::~InspectClient()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
InspectClient::sendLine(const std::string &line)
{
    std::string framed = line;
    framed.push_back('\n');
    std::size_t off = 0;
    while (off < framed.size()) {
        const ssize_t n = ::send(fd_, framed.data() + off,
                                 framed.size() - off, MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

InspectClient::Recv
InspectClient::recvLineEx(std::string &line, int timeout_ms)
{
    for (;;) {
        const std::size_t nl = buf_.find('\n');
        if (nl != std::string::npos) {
            line = buf_.substr(0, nl);
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            buf_.erase(0, nl + 1);
            return Recv::Line;
        }
        if (timeout_ms >= 0) {
            pollfd pfd{fd_, POLLIN, 0};
            const int ready = ::poll(&pfd, 1, timeout_ms);
            if (ready <= 0) {
                line.clear();
                return Recv::Timeout; // (or poll error)
            }
        }
        char chunk[4096];
        const ssize_t n = ::read(fd_, chunk, sizeof chunk);
        if (n <= 0) {
            line = buf_; // peer closed: surface any partial tail
            buf_.clear();
            return Recv::Closed;
        }
        buf_.append(chunk, static_cast<std::size_t>(n));
    }
}

} // namespace ultra::inspect
