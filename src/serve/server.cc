/**
 * @file
 * gpsm_serve daemon implementation.
 */

#include "serve/server.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/journal.hh"
#include "obs/telemetry.hh"
#include "serve/metrics.hh"
#include "util/logging.hh"

namespace gpsm::serve
{

obs::Json
statsToJson(const ServeStats &s)
{
    obs::Json doc = obs::Json::object();
    doc.set("queueDepth", obs::Json(std::uint64_t(s.queueDepth)));
    doc.set("inFlight", obs::Json(std::uint64_t(s.inFlight)));
    doc.set("requests", obs::Json(s.requests));
    doc.set("completed", obs::Json(s.completed));
    doc.set("failed", obs::Json(s.failed));
    doc.set("shed", obs::Json(s.shed));
    doc.set("rejectedDraining", obs::Json(s.rejectedDraining));
    doc.set("invalid", obs::Json(s.invalid));
    doc.set("dedupeHits", obs::Json(s.dedupeHits));
    doc.set("cacheHits", obs::Json(s.cacheHits));
    doc.set("retries", obs::Json(s.retries));
    doc.set("connectionsAccepted", obs::Json(s.connectionsAccepted));
    doc.set("connectionsRefused", obs::Json(s.connectionsRefused));

    obs::Json lat = obs::Json::object();
    lat.set("samples", obs::Json(s.latencyUs.samples()));
    lat.set("p50Us", obs::Json(s.latencyUs.percentileUpperBound(0.50)));
    lat.set("p99Us", obs::Json(s.latencyUs.percentileUpperBound(0.99)));
    lat.set("p999Us",
            obs::Json(s.latencyUs.percentileUpperBound(0.999)));
    lat.set("maxUs", obs::Json(s.latencyUs.max()));
    doc.set("latency", std::move(lat));

    obs::Json memo = obs::Json::object();
    memo.set("hits", obs::Json(s.memo.hits));
    memo.set("misses", obs::Json(s.memo.misses));
    memo.set("entries", obs::Json(s.memo.entries));
    memo.set("bytes", obs::Json(s.memo.bytes));
    memo.set("evictions", obs::Json(s.memo.evictions));
    memo.set("capBytes", obs::Json(s.memo.capBytes));
    doc.set("memo", std::move(memo));

    obs::Json journal = obs::Json::object();
    journal.set("enabled", obs::Json(s.journal.enabled));
    journal.set("loaded", obs::Json(s.journal.loaded));
    journal.set("corrupted", obs::Json(s.journal.corrupted));
    journal.set("hits", obs::Json(s.journal.hits));
    journal.set("appends", obs::Json(s.journal.appends));
    doc.set("journal", std::move(journal));

    obs::Json phase = obs::Json::object();
    phase.set("initSecondsTotal", obs::Json(s.initSecondsTotal));
    phase.set("kernelSecondsTotal", obs::Json(s.kernelSecondsTotal));
    doc.set("phase", std::move(phase));

    obs::Json events = obs::Json::object();
    events.set("subscribers",
               obs::Json(std::uint64_t(s.eventSubscribers)));
    events.set("subscribersEver", obs::Json(s.eventSubscribersEver));
    events.set("published", obs::Json(s.eventsPublished));
    events.set("delivered", obs::Json(s.eventsDelivered));
    events.set("dropped", obs::Json(s.eventsDropped));
    doc.set("events", std::move(events));
    return doc;
}

Server::Connection::~Connection()
{
    // Normally the pump is joined by stopStream before the last
    // reference drops; this is the backstop for teardown races.
    if (pump.joinable())
        pump.join();
    if (fd >= 0)
        ::close(fd);
}

Server::Server(const ServeOptions &options) : opts(options) {}

Server::~Server()
{
    if (started && !torndown) {
        // Hard stop: cancel in-flight runs through the watchdog's
        // interrupt switch and abandon the queue (waiters learn of
        // the death from their closed connections).
        draining.store(true);
        hardStop.store(true);
        teardown();
    }
}

bool
Server::start(std::string *error)
{
    if (!opts.journalPath.empty()) {
        std::string jerr;
        if (!core::enableResultJournal(opts.journalPath, &jerr))
            warn("gpsm_serve: journal not writable: %s", jerr.c_str());
        journalAttached = true;
    }

    listenFd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listenFd < 0) {
        if (error != nullptr)
            *error = std::strerror(errno);
        return false;
    }
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (opts.socketPath.size() >= sizeof(addr.sun_path)) {
        if (error != nullptr)
            *error = "socket path too long";
        ::close(listenFd);
        listenFd = -1;
        return false;
    }
    std::memcpy(addr.sun_path, opts.socketPath.c_str(),
                opts.socketPath.size() + 1);
    ::unlink(opts.socketPath.c_str()); // stale socket from a crash
    if (::bind(listenFd, reinterpret_cast<struct sockaddr *>(&addr),
               sizeof(addr)) < 0 ||
        ::listen(listenFd, 128) < 0) {
        if (error != nullptr)
            *error = std::strerror(errno);
        ::close(listenFd);
        listenFd = -1;
        return false;
    }

    watchdog = std::make_unique<util::DeadlineWatchdog>(&hardStop);

    unsigned n = opts.workers != 0 ? opts.workers
                                   : std::thread::hardware_concurrency();
    n = std::max(1u, n);
    workers.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers.emplace_back([this] { workerLoop(); });
    acceptThread = std::thread([this] { acceptLoop(); });
    started = true;
    return true;
}

void
Server::drain()
{
    if (!started || torndown)
        return;
    draining.store(true);
    {
        std::unique_lock<std::mutex> lock(queueMtx);
        doneCv.wait(lock, [&] {
            return queue.empty() && inFlightCount == 0;
        });
    }
    teardown();
}

void
Server::teardown()
{
    if (torndown)
        return;
    finalStats = stats();
    torndown = true;

    stopAccept.store(true);
    if (acceptThread.joinable())
        acceptThread.join();
    if (listenFd >= 0) {
        ::close(listenFd);
        listenFd = -1;
        ::unlink(opts.socketPath.c_str());
    }

    stopWorkers.store(true);
    queueCv.notify_all();
    for (std::thread &w : workers)
        w.join();
    workers.clear();

    {
        std::lock_guard<std::mutex> lock(connsMtx);
        for (const ConnPtr &conn : conns)
            ::shutdown(conn->fd, SHUT_RDWR);
        for (const ConnPtr &conn : conns)
            if (conn->reader.joinable())
                conn->reader.join();
        conns.clear();
    }

    watchdog.reset();
    if (journalAttached) {
        core::disableResultJournal();
        journalAttached = false;
    }
}

void
Server::sweepConnections()
{
    std::lock_guard<std::mutex> lock(connsMtx);
    for (auto it = conns.begin(); it != conns.end();) {
        if (!(*it)->alive.load(std::memory_order_acquire)) {
            if ((*it)->reader.joinable())
                (*it)->reader.join();
            // The fd closes when the last reference (possibly a task
            // waiter still holding this connection) drops.
            it = conns.erase(it);
        } else {
            ++it;
        }
    }
}

void
Server::acceptLoop()
{
    while (!stopAccept.load(std::memory_order_relaxed)) {
        sweepConnections();
        struct pollfd p;
        p.fd = listenFd;
        p.events = POLLIN;
        p.revents = 0;
        const int pr = ::poll(&p, 1, 200);
        if (pr <= 0)
            continue;
        const int fd = ::accept4(listenFd, nullptr, nullptr,
                                 SOCK_CLOEXEC);
        if (fd < 0)
            continue;
        std::lock_guard<std::mutex> lock(connsMtx);
        if (conns.size() >= opts.maxConnections) {
            std::lock_guard<std::mutex> qlock(queueMtx);
            ++connectionsRefused;
            ::close(fd);
            continue;
        }
        ConnPtr conn = std::make_shared<Connection>();
        conn->fd = fd;
        conn->reader =
            std::thread([this, conn] { readerLoop(conn); });
        conns.push_back(conn);
        std::lock_guard<std::mutex> qlock(queueMtx);
        ++connectionsAccepted;
    }
}

void
Server::readerLoop(const ConnPtr &conn)
{
    LineReader reader(conn->fd);
    for (;;) {
        const std::optional<std::string> line = reader.readLine(-1);
        if (!line)
            break;
        const std::optional<obs::Json> doc = obs::parseJson(*line);
        if (!doc) {
            {
                std::lock_guard<std::mutex> lock(queueMtx);
                ++invalidCount;
            }
            respondError(conn, 0, "?", "invalid",
                         "unparsable request line");
            continue;
        }
        handleMessage(conn, *doc);
    }
    conn->alive.store(false, std::memory_order_release);
    // A subscriber that disconnects without unsubscribing must still
    // detach from the bus, or the engine would keep paying for (and
    // dropping into) a buffer nobody reads.
    stopStream(conn.get());
}

void
Server::stopStream(Connection *conn)
{
    if (conn->sub == nullptr)
        return;
    obs::EventBus::instance().unsubscribe(conn->sub); // closes it
    if (conn->pump.joinable())
        conn->pump.join();
    conn->sub.reset();
}

void
Server::respond(const ConnPtr &conn, const obs::Json &doc)
{
    if (!conn->alive.load(std::memory_order_acquire))
        return;
    std::lock_guard<std::mutex> lock(conn->writeMtx);
    if (!sendLine(conn->fd, doc))
        conn->alive.store(false, std::memory_order_release);
}

void
Server::respondError(const ConnPtr &conn, std::uint64_t id,
                     const char *op, const std::string &kind,
                     const std::string &message,
                     const std::string &fingerprint, unsigned attempts)
{
    obs::Json doc = obs::Json::object();
    doc.set("id", obs::Json(id));
    doc.set("op", obs::Json(op));
    doc.set("status", obs::Json("error"));
    doc.set("kind", obs::Json(kind));
    doc.set("message", obs::Json(message));
    if (!fingerprint.empty())
        doc.set("fingerprint", obs::Json(fingerprint));
    if (attempts != 0)
        doc.set("attempts", obs::Json(std::uint64_t(attempts)));
    respond(conn, doc);
}

void
Server::handleMessage(const ConnPtr &conn, const obs::Json &msg)
{
    if (!msg.isObject()) {
        std::lock_guard<std::mutex> lock(queueMtx);
        ++invalidCount;
        return;
    }
    const obs::Json *idField = msg.find("id");
    const std::uint64_t id =
        idField != nullptr && idField->isNumber()
            ? static_cast<std::uint64_t>(idField->asNumber())
            : 0;
    const obs::Json *opField = msg.find("op");
    if (opField == nullptr || !opField->isString()) {
        {
            std::lock_guard<std::mutex> lock(queueMtx);
            ++invalidCount;
        }
        respondError(conn, id, "?", "invalid", "missing 'op'");
        return;
    }
    const std::string op = opField->asString();

    if (op == "ping") {
        obs::Json doc = obs::Json::object();
        doc.set("id", obs::Json(id));
        doc.set("op", obs::Json("ping"));
        doc.set("status", obs::Json("ok"));
        respond(conn, doc);
        return;
    }
    if (op == "stats") {
        obs::Json doc = obs::Json::object();
        doc.set("id", obs::Json(id));
        doc.set("op", obs::Json("stats"));
        doc.set("status", obs::Json("ok"));
        doc.set("stats", statsToJson(stats()));
        respond(conn, doc);
        return;
    }
    if (op == "metrics") {
        const obs::Json *fmt = msg.find("format");
        const std::string format =
            fmt != nullptr && fmt->isString() ? fmt->asString()
                                              : "json";
        if (format != "json" && format != "prometheus") {
            {
                std::lock_guard<std::mutex> lock(queueMtx);
                ++invalidCount;
            }
            respondError(conn, id, "metrics", "invalid",
                         "unknown format '" + format +
                             "' (json|prometheus)");
            return;
        }
        const ServeStats snapshot = stats();
        obs::Json doc = obs::Json::object();
        doc.set("id", obs::Json(id));
        doc.set("op", obs::Json("metrics"));
        doc.set("status", obs::Json("ok"));
        doc.set("stats", statsToJson(snapshot));
        if (format == "prometheus")
            doc.set("text", obs::Json(prometheusText(snapshot)));
        respond(conn, doc);
        return;
    }
    if (op == "subscribe") {
        handleSubscribe(conn, id, msg);
        return;
    }
    if (op == "unsubscribe") {
        handleUnsubscribe(conn, id);
        return;
    }
    if (op == "drain") {
        draining.store(true);
        drainRequestedFlag.store(true);
        obs::Json doc = obs::Json::object();
        doc.set("id", obs::Json(id));
        doc.set("op", obs::Json("drain"));
        doc.set("status", obs::Json("ok"));
        respond(conn, doc);
        return;
    }
    if (op == "sleep") {
        const obs::Json *secs = msg.find("seconds");
        if (secs == nullptr || !secs->isNumber() ||
            secs->asNumber() < 0) {
            {
                std::lock_guard<std::mutex> lock(queueMtx);
                ++invalidCount;
            }
            respondError(conn, id, "sleep", "invalid",
                         "'seconds' must be a non-negative number");
            return;
        }
        TaskPtr task = std::make_shared<Task>();
        task->kind = Task::Kind::Sleep;
        task->sleepSeconds = secs->asNumber();
        if (const obs::Json *dl = msg.find("deadlineSeconds");
            dl != nullptr && dl->isNumber())
            task->deadlineSeconds = dl->asNumber();
        task->waiters.push_back({conn, id, Clock::now()});
        {
            std::lock_guard<std::mutex> lock(queueMtx);
            if (draining.load()) {
                ++rejectedDrainingCount;
                respondError(conn, id, "sleep", "shutdown",
                             "daemon is draining");
                return;
            }
            if (queue.size() >= opts.queueCap) {
                ++shedCount;
                respondError(conn, id, "sleep", "overloaded",
                             "request queue full; retry later");
                return;
            }
            queue.push_back(std::move(task));
            ++requestsAdmitted;
            publishAdmittedLocked("", "sleep");
        }
        queueCv.notify_one();
        return;
    }
    if (op == "run") {
        handleRun(conn, id, msg);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(queueMtx);
        ++invalidCount;
    }
    respondError(conn, id, op.c_str(), "invalid",
                 "unknown op '" + op + "'");
}

void
Server::handleSubscribe(const ConnPtr &conn, std::uint64_t id,
                        const obs::Json &msg)
{
    if (conn->sub != nullptr) {
        {
            std::lock_guard<std::mutex> lock(queueMtx);
            ++invalidCount;
        }
        respondError(conn, id, "subscribe", "invalid",
                     "connection already subscribed");
        return;
    }
    std::size_t capacity = 1024;
    if (const obs::Json *cap = msg.find("capacity");
        cap != nullptr && cap->isNumber() && cap->asNumber() >= 1) {
        capacity = std::min<std::size_t>(
            static_cast<std::size_t>(cap->asNumber()), 1u << 16);
    }

    obs::Json doc = obs::Json::object();
    doc.set("id", obs::Json(id));
    doc.set("op", obs::Json("subscribe"));
    doc.set("status", obs::Json("ok"));
    doc.set("capacity", obs::Json(std::uint64_t(capacity)));
    respond(conn, doc);

    // Attach after the ack: the first line a subscriber reads is its
    // response, then events begin. The pump owns the subscription's
    // consumer side; a socket that stops draining blocks only the
    // pump, filling the bounded buffer until the bus drops — the
    // engine and every other subscriber proceed untouched.
    conn->sub = obs::EventBus::instance().subscribe(capacity);
    Connection *c = conn.get();
    conn->pump = std::thread([c] {
        while (c->alive.load(std::memory_order_acquire)) {
            const std::optional<std::string> line = c->sub->pop(0.2);
            if (line) {
                std::lock_guard<std::mutex> lock(c->writeMtx);
                if (!sendRawLine(c->fd, *line)) {
                    c->alive.store(false,
                                   std::memory_order_release);
                    break;
                }
            } else if (c->sub->isClosed()) {
                break;
            }
        }
    });
}

void
Server::handleUnsubscribe(const ConnPtr &conn, std::uint64_t id)
{
    if (conn->sub == nullptr) {
        {
            std::lock_guard<std::mutex> lock(queueMtx);
            ++invalidCount;
        }
        respondError(conn, id, "unsubscribe", "invalid",
                     "connection is not subscribed");
        return;
    }
    const obs::EventBus::SubPtr sub = conn->sub;
    stopStream(conn.get());
    obs::Json doc = obs::Json::object();
    doc.set("id", obs::Json(id));
    doc.set("op", obs::Json("unsubscribe"));
    doc.set("status", obs::Json("ok"));
    doc.set("delivered", obs::Json(sub->delivered()));
    doc.set("dropped", obs::Json(sub->dropped()));
    respond(conn, doc);
}

void
Server::publishRequestEvent(const char *type, const std::string &run,
                            const char *op, const obs::Json *extra)
{
    if (!obs::eventStreamActive())
        return;
    obs::Json ev;
    {
        std::lock_guard<std::mutex> lock(queueMtx);
        ev = requestEventLocked(type, run, op);
    }
    if (extra != nullptr)
        for (const auto &[k, v] : extra->entries())
            ev.set(k, v);
    obs::EventBus::instance().publish(std::move(ev));
}

void
Server::publishAdmittedLocked(const std::string &run, const char *op)
{
    if (obs::eventStreamActive())
        obs::EventBus::instance().publish(
            requestEventLocked("request_admitted", run, op));
}

obs::Json
Server::requestEventLocked(const char *type, const std::string &run,
                           const char *op)
{
    obs::Json ev = obs::makeEvent(type, run);
    ev.set("op", obs::Json(op));
    ev.set("queueDepth", obs::Json(std::uint64_t(queue.size())));
    ev.set("inFlight", obs::Json(std::uint64_t(inFlightCount)));
    return ev;
}

void
Server::handleRun(const ConnPtr &conn, std::uint64_t id,
                  const obs::Json &msg)
{
    TaskPtr task = std::make_shared<Task>();
    try {
        const obs::Json *cfg = msg.find("config");
        if (cfg == nullptr)
            fatal("run request has no 'config'");
        task->config = configFromJson(*cfg);
        task->fingerprint = task->config.fingerprint();
        if (const obs::Json *want = msg.find("fingerprint")) {
            if (!want->isString() ||
                want->asString() != task->fingerprint)
                fatal("request fingerprint does not match decoded "
                      "config (codec drift between client and "
                      "server builds)");
        }
    } catch (const FatalError &e) {
        {
            std::lock_guard<std::mutex> lock(queueMtx);
            ++invalidCount;
        }
        respondError(conn, id, "run", "invalid", e.what());
        return;
    }
    task->run = obs::runId(task->fingerprint);
    task->deadlineSeconds = opts.defaultDeadlineSeconds;
    task->retries = opts.defaultRetries;
    if (const obs::Json *dl = msg.find("deadlineSeconds");
        dl != nullptr && dl->isNumber())
        task->deadlineSeconds = dl->asNumber();
    if (const obs::Json *rt = msg.find("retries");
        rt != nullptr && rt->isNumber() && rt->asNumber() >= 0)
        task->retries = static_cast<unsigned>(rt->asNumber());
    task->waiters.push_back({conn, id, Clock::now()});

    const std::string run = task->run;
    const char *event = nullptr;
    bool admitted = false;
    {
        std::lock_guard<std::mutex> lock(queueMtx);
        if (draining.load()) {
            ++rejectedDrainingCount;
            respondError(conn, id, "run", "shutdown",
                         "daemon is draining", task->fingerprint);
            return;
        }
        const auto it = pendingByFp.find(task->fingerprint);
        if (it != pendingByFp.end()) {
            // Single-flight: share the in-flight execution.
            it->second->waiters.push_back(
                {conn, id, Clock::now()});
            ++dedupeHitCount;
            event = "request_deduped";
        } else if (queue.size() >= opts.queueCap) {
            ++shedCount;
            respondError(conn, id, "run", "overloaded",
                         "request queue full; retry later",
                         task->fingerprint);
            event = "request_shed";
        } else {
            pendingByFp.emplace(task->fingerprint, task);
            queue.push_back(std::move(task));
            ++requestsAdmitted;
            publishAdmittedLocked(run, "run");
            admitted = true;
        }
    }
    if (admitted)
        queueCv.notify_one();
    if (event != nullptr)
        publishRequestEvent(event, run, "run");
}

void
Server::workerLoop()
{
    for (;;) {
        TaskPtr task;
        {
            std::unique_lock<std::mutex> lock(queueMtx);
            queueCv.wait(lock, [&] {
                return stopWorkers.load() || !queue.empty();
            });
            if (queue.empty() || hardStop.load()) {
                if (stopWorkers.load())
                    return;
                continue;
            }
            task = queue.front();
            queue.pop_front();
            ++inFlightCount;
        }
        executeTask(task);
    }
}

void
Server::executeTask(const TaskPtr &task)
{
    obs::Json resp = obs::Json::object();
    bool ok = false;

    publishRequestEvent(
        "request_start", task->run,
        task->kind == Task::Kind::Sleep ? "sleep" : "run");

    if (task->kind == Task::Kind::Sleep) {
        const util::DeadlineWatchdog::Flag flag =
            std::make_shared<std::atomic<bool>>(false);
        watchdog->watch(flag, util::deadlineFor(task->deadlineSeconds));
        const auto end =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   task->sleepSeconds));
        while (Clock::now() < end &&
               !flag->load(std::memory_order_relaxed))
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        watchdog->unwatch(flag);
        if (flag->load(std::memory_order_relaxed)) {
            resp.set("op", obs::Json("sleep"));
            resp.set("status", obs::Json("error"));
            resp.set("kind", obs::Json(hardStop.load() ? "shutdown"
                                                       : "timeout"));
            resp.set("message", obs::Json("sleep cancelled"));
        } else {
            resp.set("op", obs::Json("sleep"));
            resp.set("status", obs::Json("ok"));
            resp.set("seconds", obs::Json(task->sleepSeconds));
            ok = true;
        }
        finishTask(task, resp, ok);
        if (obs::eventStreamActive()) {
            obs::Json extra = obs::Json::object();
            extra.set("status", obs::Json(ok ? "ok" : "error"));
            publishRequestEvent("request_done", task->run, "sleep",
                                &extra);
        }
        return;
    }

    core::RunGuard guard;
    guard.deadlineSeconds = task->deadlineSeconds;
    guard.timeoutRetries = task->retries;
    guard.backoffBaseSeconds = opts.backoffBaseSeconds;
    guard.backoffCapSeconds = opts.backoffCapSeconds;
    guard.interrupt = &hardStop;
    guard.watchdog = watchdog.get();
    const core::RunOutcome out = core::runGuarded(task->config, guard);
    ok = out.ok();
    {
        std::lock_guard<std::mutex> lock(queueMtx);
        retryCount += out.attempts > 1 ? out.attempts - 1 : 0;
        if (out.cached) {
            ++cacheHitCount;
        } else if (ok) {
            // Phase attribution for the metrics exporter: simulated
            // seconds actually spent executing (cached replays cost
            // nothing).
            initSecondsTotal += out.result->initSeconds;
            kernelSecondsTotal += out.result->kernelSeconds;
        }
    }

    resp.set("op", obs::Json("run"));
    resp.set("status", obs::Json(ok ? "ok" : "error"));
    resp.set("run", obs::Json(task->run));
    if (ok) {
        resp.set("fingerprint", obs::Json(task->fingerprint));
        resp.set("label", obs::Json(task->config.label()));
        resp.set("cached", obs::Json(out.cached));
        resp.set("wallSeconds", obs::Json(out.wallSeconds));
        resp.set("attempts", obs::Json(std::uint64_t(out.attempts)));
        resp.set("result",
                 obs::Json(core::serializeRunResult(*out.result)));
    } else {
        resp.set("kind",
                 obs::Json(core::experimentErrorKindName(out.error->kind)));
        resp.set("message", obs::Json(out.error->message));
        resp.set("fingerprint", obs::Json(task->fingerprint));
        resp.set("attempts", obs::Json(std::uint64_t(out.attempts)));
    }
    finishTask(task, resp, ok);
    if (obs::eventStreamActive()) {
        obs::Json extra = obs::Json::object();
        extra.set("status", obs::Json(ok ? "ok" : "error"));
        if (ok) {
            extra.set("cached", obs::Json(out.cached));
            extra.set("wallSeconds", obs::Json(out.wallSeconds));
        } else {
            extra.set("kind", *resp.find("kind"));
        }
        publishRequestEvent("request_done", task->run, "run",
                            &extra);
    }
}

void
Server::finishTask(const TaskPtr &task, const obs::Json &payload,
                   bool ok)
{
    std::vector<Waiter> waiters;
    const auto now = Clock::now();
    {
        std::lock_guard<std::mutex> lock(queueMtx);
        if (!task->fingerprint.empty()) {
            const auto it = pendingByFp.find(task->fingerprint);
            if (it != pendingByFp.end() && it->second == task)
                pendingByFp.erase(it);
        }
        waiters.swap(task->waiters);
        --inFlightCount;
        if (ok)
            ++completedCount;
        else
            ++failedCount;
        for (const Waiter &w : waiters) {
            const auto us =
                std::chrono::duration_cast<std::chrono::microseconds>(
                    now - w.arrival)
                    .count();
            latencyUs.add(static_cast<std::uint64_t>(us));
        }
    }
    doneCv.notify_all();
    for (const Waiter &w : waiters) {
        obs::Json doc = payload;
        doc.set("id", obs::Json(w.id));
        respond(w.conn, doc);
    }
}

ServeStats
Server::stats() const
{
    if (torndown)
        return finalStats;
    ServeStats s;
    {
        std::lock_guard<std::mutex> lock(queueMtx);
        s.connectionsAccepted = connectionsAccepted;
        s.connectionsRefused = connectionsRefused;
        s.requests = requestsAdmitted;
        s.completed = completedCount;
        s.failed = failedCount;
        s.shed = shedCount;
        s.rejectedDraining = rejectedDrainingCount;
        s.invalid = invalidCount;
        s.dedupeHits = dedupeHitCount;
        s.cacheHits = cacheHitCount;
        s.retries = retryCount;
        s.queueDepth = queue.size();
        s.inFlight = inFlightCount;
        s.latencyUs = latencyUs;
        s.initSecondsTotal = initSecondsTotal;
        s.kernelSecondsTotal = kernelSecondsTotal;
    }
    s.memo = core::experimentMemoStats();
    s.journal = core::resultJournalStats();
    const obs::EventBus &bus = obs::EventBus::instance();
    s.eventSubscribers = bus.subscribers();
    s.eventSubscribersEver = bus.totalSubscribers();
    s.eventsPublished = bus.published();
    s.eventsDelivered = bus.delivered();
    s.eventsDropped = bus.dropped();
    return s;
}

} // namespace gpsm::serve
