/**
 * @file
 * Wire protocol implementation: config codec + line framing.
 */

#include "serve/protocol.hh"

#include <cerrno>
#include <cmath>
#include <poll.h>
#include <sys/socket.h>

#include "core/cli.hh"
#include "fault/fault_plan_io.hh"
#include "util/logging.hh"

namespace gpsm::serve
{

using core::ExperimentConfig;
using core::SystemConfig;
namespace cli = core::cli;

namespace
{

/** @name Strict JSON field accessors (fatal on type mismatch) @{ */

std::uint64_t
asU64(const obs::Json &v, const char *key)
{
    if (!v.isNumber() || v.asNumber() < 0 ||
        v.asNumber() != std::floor(v.asNumber()))
        fatal("serve config: '%s' must be a non-negative integer", key);
    return static_cast<std::uint64_t>(v.asNumber());
}

std::int64_t
asI64(const obs::Json &v, const char *key)
{
    if (!v.isNumber() || v.asNumber() != std::floor(v.asNumber()))
        fatal("serve config: '%s' must be an integer", key);
    return static_cast<std::int64_t>(v.asNumber());
}

double
asF64(const obs::Json &v, const char *key)
{
    if (!v.isNumber())
        fatal("serve config: '%s' must be a number", key);
    return v.asNumber();
}

bool
asBool(const obs::Json &v, const char *key)
{
    if (v.kind() != obs::Json::Kind::Bool)
        fatal("serve config: '%s' must be a bool", key);
    return v.asBool();
}

std::string
asString(const obs::Json &v, const char *key)
{
    if (!v.isString())
        fatal("serve config: '%s' must be a string", key);
    return v.asString();
}

/** An enum field, spelled as the enum's *Name() function prints it. */
template <typename Enum, std::size_t N>
Enum
asNamed(const obs::Json &v, const char *key, const Enum (&all)[N],
        const char *(*name)(Enum))
{
    const std::string what = std::string("serve config: ") + key;
    return cli::parseNamed(asString(v, key), what.c_str(), all, name);
}
/** @} */

SystemConfig
presetByName(const std::string &name)
{
    if (name == "scaled")
        return SystemConfig::scaled();
    if (name == "haswell")
        return SystemConfig::haswell();
    fatal("serve config: unknown system preset '%s'", name.c_str());
}

obs::Json
sysToJson(const SystemConfig &sys)
{
    const SystemConfig base = presetByName(sys.name);
    obs::Json doc = obs::Json::object();
    doc.set("preset", obs::Json(sys.name));
    if (sys.node.bytes != base.node.bytes)
        doc.set("nodeBytes", obs::Json(sys.node.bytes));
    if (sys.node.hugeWatermarkBytes != base.node.hugeWatermarkBytes)
        doc.set("nodeHugeWatermarkBytes",
                obs::Json(sys.node.hugeWatermarkBytes));
    if (sys.node1.bytes != 0)
        doc.set("node1Bytes", obs::Json(sys.node1.bytes));
    if (sys.numaPlacement != base.numaPlacement)
        doc.set("numaPlacement",
                obs::Json(numaPlacementName(sys.numaPlacement)));
    if (sys.numaMigrateOnPromote != base.numaMigrateOnPromote)
        doc.set("numaMigrateOnPromote",
                obs::Json(sys.numaMigrateOnPromote));
    return doc;
}

SystemConfig
sysFromJson(const obs::Json &doc)
{
    if (!doc.isObject())
        fatal("serve config: 'sys' must be an object");
    const obs::Json *preset = doc.find("preset");
    if (preset == nullptr)
        fatal("serve config: 'sys' has no 'preset'");
    SystemConfig sys = presetByName(asString(*preset, "preset"));
    for (const auto &[key, value] : doc.entries()) {
        if (key == "preset") {
            // consumed above
        } else if (key == "nodeBytes") {
            sys.node.bytes = asU64(value, "nodeBytes");
        } else if (key == "nodeHugeWatermarkBytes") {
            sys.node.hugeWatermarkBytes =
                asU64(value, "nodeHugeWatermarkBytes");
        } else if (key == "node1Bytes") {
            sys.enableSecondNode(asU64(value, "node1Bytes"));
        } else if (key == "numaPlacement") {
            sys.numaPlacement = asNamed(value, "numaPlacement",
                                        cli::allPlacements,
                                        mem::numaPlacementName);
        } else if (key == "numaMigrateOnPromote") {
            sys.numaMigrateOnPromote =
                asBool(value, "numaMigrateOnPromote");
        } else {
            fatal("serve config: unknown sys key '%s'", key.c_str());
        }
    }
    return sys;
}

obs::Json
configToJsonUnchecked(const ExperimentConfig &c)
{
    const ExperimentConfig d;
    obs::Json doc = obs::Json::object();
    doc.set("sys", sysToJson(c.sys));
    if (c.app != d.app)
        doc.set("app", obs::Json(core::appName(c.app)));
    if (c.dataset != d.dataset)
        doc.set("dataset", obs::Json(c.dataset));
    if (c.scaleDivisor != d.scaleDivisor)
        doc.set("scaleDivisor", obs::Json(c.scaleDivisor));
    if (c.seed != d.seed)
        doc.set("seed", obs::Json(c.seed));
    if (c.reorder != d.reorder)
        doc.set("reorder",
                obs::Json(graph::reorderMethodName(c.reorder)));
    if (c.thpMode != d.thpMode)
        doc.set("thpMode", obs::Json(vm::thpModeName(c.thpMode)));
    if (c.madvise.vertex || c.madvise.edge || c.madvise.values ||
        c.madvise.propertyFraction != 0.0) {
        obs::Json m = obs::Json::object();
        if (c.madvise.vertex)
            m.set("vertex", obs::Json(true));
        if (c.madvise.edge)
            m.set("edge", obs::Json(true));
        if (c.madvise.values)
            m.set("values", obs::Json(true));
        if (c.madvise.propertyFraction != 0.0)
            m.set("propertyFraction",
                  obs::Json(c.madvise.propertyFraction));
        doc.set("madvise", std::move(m));
    }
    if (c.order != d.order)
        doc.set("order", obs::Json(core::allocOrderName(c.order)));
    if (c.khugepagedAfterInit != d.khugepagedAfterInit)
        doc.set("khugepagedAfterInit",
                obs::Json(c.khugepagedAfterInit));
    if (c.khugepagedMinPresent != d.khugepagedMinPresent)
        doc.set("khugepagedMinPresent",
                obs::Json(c.khugepagedMinPresent));
    if (c.khugepagedScanPages != d.khugepagedScanPages)
        doc.set("khugepagedScanPages",
                obs::Json(c.khugepagedScanPages));
    if (c.khugepagedHotFirst != d.khugepagedHotFirst)
        doc.set("khugepagedHotFirst", obs::Json(c.khugepagedHotFirst));
    if (c.khugepagedDuringKernel != d.khugepagedDuringKernel)
        doc.set("khugepagedDuringKernel",
                obs::Json(c.khugepagedDuringKernel));
    if (c.khugepagedIntervalAccesses != d.khugepagedIntervalAccesses)
        doc.set("khugepagedIntervalAccesses",
                obs::Json(c.khugepagedIntervalAccesses));
    if (c.constrainMemory != d.constrainMemory)
        doc.set("constrainMemory", obs::Json(c.constrainMemory));
    if (c.slackBytes != d.slackBytes)
        doc.set("slackBytes", obs::Json(c.slackBytes));
    if (c.fragLevel != d.fragLevel)
        doc.set("fragLevel", obs::Json(c.fragLevel));
    if (c.pressureNode != d.pressureNode)
        doc.set("pressureNode",
                obs::Json(core::pressureNodeName(c.pressureNode)));
    if (c.fileSource != d.fileSource)
        doc.set("fileSource",
                obs::Json(core::fileSourceName(c.fileSource)));
    if (c.giantProperty != d.giantProperty)
        doc.set("giantProperty", obs::Json(c.giantProperty));
    if (c.oocRatio != d.oocRatio)
        doc.set("oocRatio", obs::Json(c.oocRatio));
    if (c.oocEviction != d.oocEviction)
        doc.set("oocEviction",
                obs::Json(mem::evictionKindName(c.oocEviction)));
    if (c.hugeFaultRetries != d.hugeFaultRetries)
        doc.set("hugeFaultRetries",
                obs::Json(std::uint64_t(c.hugeFaultRetries)));
    if (!c.faultPlan.empty() || c.faultPlan.seed != d.faultPlan.seed)
        doc.set("faultPlan", fault::faultPlanToJson(c.faultPlan));
    if (c.prMaxIters != d.prMaxIters)
        doc.set("prMaxIters", obs::Json(std::uint64_t(c.prMaxIters)));
    if (c.prDamping != d.prDamping)
        doc.set("prDamping", obs::Json(c.prDamping));
    if (c.prEpsilon != d.prEpsilon)
        doc.set("prEpsilon", obs::Json(c.prEpsilon));
    if (c.ssspDelta != d.ssspDelta)
        doc.set("ssspDelta", obs::Json(std::uint64_t(c.ssspDelta)));
    if (c.ccMaxIters != d.ccMaxIters)
        doc.set("ccMaxIters", obs::Json(std::uint64_t(c.ccMaxIters)));
    return doc;
}

} // namespace

ExperimentConfig
configFromJson(const obs::Json &doc)
{
    if (!doc.isObject())
        fatal("serve config: top level must be an object");
    ExperimentConfig c;
    for (const auto &[key, value] : doc.entries()) {
        if (key == "sys") {
            c.sys = sysFromJson(value);
        } else if (key == "app") {
            c.app = asNamed(value, "app", cli::allApps, core::appName);
        } else if (key == "dataset") {
            c.dataset = asString(value, "dataset");
        } else if (key == "scaleDivisor") {
            c.scaleDivisor = asU64(value, "scaleDivisor");
        } else if (key == "seed") {
            c.seed = asU64(value, "seed");
        } else if (key == "reorder") {
            c.reorder = asNamed(value, "reorder", cli::allReorders,
                                graph::reorderMethodName);
        } else if (key == "thpMode") {
            c.thpMode = asNamed(value, "thpMode", cli::allThpModes,
                                vm::thpModeName);
        } else if (key == "madvise") {
            if (!value.isObject())
                fatal("serve config: 'madvise' must be an object");
            for (const auto &[mk, mv] : value.entries()) {
                if (mk == "vertex")
                    c.madvise.vertex = asBool(mv, "vertex");
                else if (mk == "edge")
                    c.madvise.edge = asBool(mv, "edge");
                else if (mk == "values")
                    c.madvise.values = asBool(mv, "values");
                else if (mk == "propertyFraction")
                    c.madvise.propertyFraction =
                        asF64(mv, "propertyFraction");
                else
                    fatal("serve config: unknown madvise key '%s'",
                          mk.c_str());
            }
        } else if (key == "order") {
            c.order = asNamed(value, "order", cli::allOrders,
                              core::allocOrderName);
        } else if (key == "khugepagedAfterInit") {
            c.khugepagedAfterInit = asBool(value, key.c_str());
        } else if (key == "khugepagedMinPresent") {
            c.khugepagedMinPresent = asU64(value, key.c_str());
        } else if (key == "khugepagedScanPages") {
            c.khugepagedScanPages = asU64(value, key.c_str());
        } else if (key == "khugepagedHotFirst") {
            c.khugepagedHotFirst = asBool(value, key.c_str());
        } else if (key == "khugepagedDuringKernel") {
            c.khugepagedDuringKernel = asBool(value, key.c_str());
        } else if (key == "khugepagedIntervalAccesses") {
            c.khugepagedIntervalAccesses = asU64(value, key.c_str());
        } else if (key == "constrainMemory") {
            c.constrainMemory = asBool(value, key.c_str());
        } else if (key == "slackBytes") {
            c.slackBytes = asI64(value, key.c_str());
        } else if (key == "fragLevel") {
            c.fragLevel = asF64(value, key.c_str());
        } else if (key == "pressureNode") {
            c.pressureNode =
                asNamed(value, "pressureNode", cli::allPressureNodes,
                        core::pressureNodeName);
        } else if (key == "fileSource") {
            c.fileSource = asNamed(value, "fileSource",
                                   cli::allFileSources,
                                   core::fileSourceName);
        } else if (key == "giantProperty") {
            c.giantProperty = asBool(value, key.c_str());
        } else if (key == "oocRatio") {
            c.oocRatio = asF64(value, key.c_str());
            if (c.oocRatio < 0.0)
                fatal("serve config: oocRatio must be non-negative");
        } else if (key == "oocEviction") {
            c.oocEviction = asNamed(value, "oocEviction",
                                    cli::allEvictions,
                                    mem::evictionKindName);
        } else if (key == "hugeFaultRetries") {
            c.hugeFaultRetries =
                static_cast<unsigned>(asU64(value, key.c_str()));
        } else if (key == "faultPlan") {
            c.faultPlan = fault::faultPlanFromJson(value);
        } else if (key == "prMaxIters") {
            c.prMaxIters =
                static_cast<std::uint32_t>(asU64(value, key.c_str()));
        } else if (key == "prDamping") {
            c.prDamping = asF64(value, key.c_str());
        } else if (key == "prEpsilon") {
            c.prEpsilon = asF64(value, key.c_str());
        } else if (key == "ssspDelta") {
            c.ssspDelta =
                static_cast<std::uint32_t>(asU64(value, key.c_str()));
        } else if (key == "ccMaxIters") {
            c.ccMaxIters =
                static_cast<std::uint32_t>(asU64(value, key.c_str()));
        } else {
            fatal("serve config: unknown key '%s'", key.c_str());
        }
    }
    return c;
}

obs::Json
configToJson(const ExperimentConfig &config)
{
    obs::Json doc = configToJsonUnchecked(config);
    // Round-trip guard: a config using any field the codec does not
    // cover (e.g. one added later) must fail loudly at encode time,
    // not produce a wire request that silently runs something else.
    if (configFromJson(doc).fingerprint() != config.fingerprint())
        fatal("serve config: '%s' is not representable in the wire "
              "codec (fingerprint mismatch after round-trip)",
              config.label().c_str());
    return doc;
}

bool
sendLine(int fd, const obs::Json &doc)
{
    std::string line = doc.dump();
    line += '\n';
    return sendRawLine(fd, line);
}

bool
sendRawLine(int fd, const std::string &line)
{
    std::size_t off = 0;
    while (off < line.size()) {
        const ssize_t n = ::send(fd, line.data() + off,
                                 line.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

std::optional<std::string>
LineReader::readLine(int timeout_ms)
{
    for (;;) {
        const std::size_t pos = buffer.find('\n');
        if (pos != std::string::npos) {
            std::string line = buffer.substr(0, pos);
            buffer.erase(0, pos + 1);
            return line;
        }
        if (sawEof)
            return std::nullopt; // a torn trailing line is dropped
        struct pollfd p;
        p.fd = sock;
        p.events = POLLIN;
        p.revents = 0;
        const int pr = ::poll(&p, 1, timeout_ms);
        if (pr == 0)
            return std::nullopt; // timeout
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            sawEof = true;
            return std::nullopt;
        }
        char chunk[4096];
        const ssize_t n = ::recv(sock, chunk, sizeof(chunk), 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            sawEof = true;
            return std::nullopt;
        }
        if (n == 0) {
            sawEof = true;
            continue;
        }
        buffer.append(chunk, static_cast<std::size_t>(n));
    }
}

std::optional<obs::Json>
readMessage(LineReader &reader, int timeout_ms)
{
    const std::optional<std::string> line = reader.readLine(timeout_ms);
    if (!line)
        return std::nullopt;
    return obs::parseJson(*line);
}

} // namespace gpsm::serve
