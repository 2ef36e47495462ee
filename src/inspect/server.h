/**
 * @file
 * Socket transport for the live inspection protocol (ultra::inspect).
 *
 * An InspectServer listens on a TCP loopback port or a unix-domain
 * socket and serves one attached client at a time (sequential clients
 * are fine -- detach and re-attach at will, like gdbserver).  It has no
 * thread of its own: each call from the simulation thread first pumps
 * the sockets with poll(2) -- accepting a waiting client, reading what
 * it sent, splitting the bytes into lines and counting hang-ups -- so
 * the Inspector reads lines at cycle boundaries and writes responses
 * back through send() without a lock anywhere.  The transport needs no
 * knowledge of the protocol.
 *
 * InspectClient is the matching connector used by `ultrascope
 * --attach` and the tests: connect, send a line, receive a line with a
 * timeout.
 */

#ifndef ULTRA_INSPECT_SERVER_H
#define ULTRA_INSPECT_SERVER_H

#include <cstdint>
#include <deque>
#include <memory>
#include <string>

namespace ultra::inspect
{

/**
 * Line-oriented single-client socket server.
 *
 * Address grammar (shared with InspectClient): an all-digit string is
 * a TCP port on 127.0.0.1 (0 picks an ephemeral port -- read the real
 * one back from port()); anything else is a unix-domain socket path
 * (any stale file at that path is unlinked first).
 */
class InspectServer
{
  public:
    /** Listen on @p addr; nullptr + @p err on failure. */
    static std::unique_ptr<InspectServer> listen(const std::string &addr,
                                                 std::string &err);

    ~InspectServer();

    InspectServer(const InspectServer &) = delete;
    InspectServer &operator=(const InspectServer &) = delete;

    /** Human-readable bound address ("127.0.0.1:4567" or the path). */
    const std::string &where() const { return where_; }

    /** Bound TCP port (0 for unix-domain sockets). */
    std::uint16_t port() const { return port_; }

    /** A client is attached right now.  Non-blocking, like the two
     *  calls below: each pumps the sockets first. */
    bool connected();

    /** Clients that have disconnected since the last call (lets the
     *  Inspector clear watchpoints left by a vanished client). */
    unsigned takeDisconnects();

    /** Pop the next complete command line, if one has arrived. */
    bool poll(std::string &line);

    /**
     * Block until a command line arrives (true) or the attached client
     * disconnects with nothing queued (false).  With no client yet
     * attached this waits for the first connection -- the "run starts
     * paused until someone attaches" behaviour.  A disconnect not yet
     * consumed by takeDisconnects() or an earlier wait() returns false
     * at once, and is consumed.
     */
    bool wait(std::string &line);

    /** Send one line (newline appended) to the attached client; a
     *  no-op when none is attached. */
    void send(const std::string &line);

  private:
    InspectServer(int listen_fd, std::string where, std::uint16_t port,
                  std::string unlink_path);

    /**
     * Accept, read and split whatever the sockets hold, waiting up to
     * @p timeout_ms (-1 = forever) for the first event.  Watches the
     * listening socket while no client is attached, else the client.
     */
    void pump(int timeout_ms);

    const std::string where_;
    const std::uint16_t port_;
    const std::string unlinkPath_; //!< unix-socket file to remove

    std::deque<std::string> lines_;
    std::string partial_; //!< bytes read past the last complete line
    int listenFd_ = -1;
    int clientFd_ = -1;
    unsigned disconnects_ = 0;      //!< total client hang-ups
    unsigned disconnectsTaken_ = 0; //!< consumed by takeDisconnects
};

/** Blocking line-oriented connector for the same address grammar. */
class InspectClient
{
  public:
    /** Outcome of one receive attempt. */
    enum class Recv { Line, Timeout, Closed };

    /** Connect to @p addr; nullptr + @p err on failure. */
    static std::unique_ptr<InspectClient> connect(const std::string &addr,
                                                  std::string &err);

    ~InspectClient();

    InspectClient(const InspectClient &) = delete;
    InspectClient &operator=(const InspectClient &) = delete;

    /** Send one line (newline appended).  False once the peer is gone. */
    bool sendLine(const std::string &line);

    /**
     * Receive the next line, waiting up to @p timeout_ms (<0 = forever).
     * On Timeout @p line is left empty; on Closed it holds any partial
     * unterminated tail.
     */
    Recv recvLineEx(std::string &line, int timeout_ms = -1);

    /** recvLineEx reduced to "got a line?". */
    bool
    recvLine(std::string &line, int timeout_ms = -1)
    {
        return recvLineEx(line, timeout_ms) == Recv::Line;
    }

  private:
    explicit InspectClient(int fd) : fd_(fd) {}

    int fd_ = -1;
    std::string buf_; //!< bytes read past the last returned line
};

} // namespace ultra::inspect

#endif // ULTRA_INSPECT_SERVER_H
