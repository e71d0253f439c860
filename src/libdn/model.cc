#include "libdn/model.hh"

#include <algorithm>
#include <istream>
#include <limits>
#include <map>
#include <ostream>

#include "base/logging.hh"
#include "passes/flatten.hh"

namespace fireaxe::libdn {

LIBDNModel::LIBDNModel(
    std::string name, const firrtl::Circuit &circuit,
    rtlsim::EvalEngine engine,
    std::shared_ptr<const rtlsim::CompiledProgram> precompiled)
    : name_(std::move(name))
{
    firrtl::Circuit flat = passes::flattenAll(circuit);
    sim_ = std::make_unique<rtlsim::Simulator>(
        flat, engine, std::move(precompiled));
}

unsigned
LIBDNModel::channelWidth(const ChannelSpec &spec) const
{
    unsigned width = 0;
    for (const auto &port : spec.ports) {
        int idx = sim_->signalIndex(port);
        if (idx < 0) {
            fatal("partition '", name_, "': channel '", spec.name,
                  "' names unknown port '", port, "'");
        }
        width += sim_->signal(idx).width;
    }
    return width;
}

int
LIBDNModel::defineInputChannel(const ChannelSpec &spec)
{
    FIREAXE_ASSERT(!finalized_, "model already finalized");
    std::vector<int> idx;
    for (const auto &port : spec.ports) {
        int sig = sim_->signalIndex(port);
        if (sig < 0 || sim_->signal(sig).kind != rtlsim::SigKind::Input) {
            fatal("partition '", name_, "': input channel '", spec.name,
                  "' port '", port, "' is not an input port");
        }
        idx.push_back(sig);
    }
    inSpecs_.push_back(spec);
    inPortIdx_.push_back(std::move(idx));
    inChans_.resize(inSpecs_.size());
    return int(inSpecs_.size()) - 1;
}

int
LIBDNModel::defineOutputChannel(const ChannelSpec &spec)
{
    FIREAXE_ASSERT(!finalized_, "model already finalized");
    std::vector<int> idx;
    for (const auto &port : spec.ports) {
        int sig = sim_->signalIndex(port);
        if (sig < 0 ||
            sim_->signal(sig).kind != rtlsim::SigKind::Output) {
            fatal("partition '", name_, "': output channel '",
                  spec.name, "' port '", port,
                  "' is not an output port");
        }
        idx.push_back(sig);
    }
    outSpecs_.push_back(spec);
    outPortIdx_.push_back(std::move(idx));
    outChans_.resize(outSpecs_.size());
    fired_.resize(outSpecs_.size(), 0);
    return int(outSpecs_.size()) - 1;
}

void
LIBDNModel::bindInput(int slot, ChannelPtr channel)
{
    FIREAXE_ASSERT(slot >= 0 && size_t(slot) < inSpecs_.size());
    channel->setTokenWords(inPortIdx_[slot].size());
    inChans_[slot] = std::move(channel);
}

void
LIBDNModel::bindOutput(int slot, ChannelPtr channel)
{
    FIREAXE_ASSERT(slot >= 0 && size_t(slot) < outSpecs_.size());
    channel->setTokenWords(outPortIdx_[slot].size());
    outChans_[slot] = std::move(channel);
}

unsigned
LIBDNModel::inputChannelWidth(int slot) const
{
    FIREAXE_ASSERT(slot >= 0 && size_t(slot) < inSpecs_.size());
    return channelWidth(inSpecs_[slot]);
}

unsigned
LIBDNModel::outputChannelWidth(int slot) const
{
    FIREAXE_ASSERT(slot >= 0 && size_t(slot) < outSpecs_.size());
    return channelWidth(outSpecs_[slot]);
}

void
LIBDNModel::finalize()
{
    FIREAXE_ASSERT(!finalized_);

    // Map each bound input signal to its owning channel slot.
    std::map<int, int> sigToInChan;
    for (size_t c = 0; c < inPortIdx_.size(); ++c)
        for (int sig : inPortIdx_[c])
            sigToInChan[sig] = int(c);

    // Channel-level dependency sets from the simulator's signal-level
    // dependency matrix: output channel C depends on input channel D
    // when any port of C combinationally depends on any port of D.
    outDeps_.assign(outSpecs_.size(), {});
    for (size_t c = 0; c < outSpecs_.size(); ++c) {
        std::vector<int> &deps = outDeps_[c];
        if (forceOutputDeps_) {
            // Fast-mode (Fig. 3b): one concatenated token out per
            // concatenated token in, lockstep.
            for (size_t i = 0; i < inSpecs_.size(); ++i)
                deps.push_back(int(i));
            continue;
        }
        for (int out_sig : outPortIdx_[c]) {
            for (int in_sig : sim_->outputDeps(out_sig)) {
                auto it = sigToInChan.find(in_sig);
                if (it != sigToInChan.end())
                    deps.push_back(it->second);
            }
        }
        std::sort(deps.begin(), deps.end());
        deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
    }

    situation_.assign(inSpecs_.size() + outSpecs_.size(), 0);
    lastSituation_.assign(situation_.size(), 0);
    for (size_t c = 0; c < inSpecs_.size(); ++c) {
        if (!inChans_[c]) {
            fatal("partition '", name_, "': input channel '",
                  inSpecs_[c].name, "' unbound");
        }
    }
    for (size_t c = 0; c < outSpecs_.size(); ++c) {
        if (!outChans_[c]) {
            fatal("partition '", name_, "': output channel '",
                  outSpecs_[c].name, "' unbound");
        }
    }
    finalized_ = true;
}

void
LIBDNModel::seedOutputs(double now)
{
    FIREAXE_ASSERT(finalized_, "finalize() before seedOutputs()");
    sim_->evalComb();
    for (size_t c = 0; c < outSpecs_.size(); ++c) {
        outToken_.clear();
        for (int sig : outPortIdx_[c])
            outToken_.push_back(sim_->peekIdx(sig));
        outChans_[c]->enq(outToken_, now);
    }
}

TickOutcome
LIBDNModel::tick(double now)
{
    FIREAXE_ASSERT(finalized_, "finalize() before tick()");
    ++ticks_;
    // Cheap no-change check: if the channel situation is identical to
    // the last tick within the same target cycle, the FSMs cannot
    // make new progress, so skip the evaluation.
    size_t num_in = inChans_.size();
    for (size_t c = 0; c < num_in; ++c)
        situation_[c] = inChans_[c]->headReady(now);
    for (size_t c = 0; c < outChans_.size(); ++c)
        situation_[num_in + c] = !fired_[c] && !outChans_[c]->full();
    if (situationValid_ && situation_ == lastSituation_)
        return {false, false, false, cycle_};
    situation_.swap(lastSituation_);
    situationValid_ = true;
    // The input bits double as the visible-token mask below.
    const uint8_t *in_avail = lastSituation_.data();

    // Poke values of every visible input token.
    for (size_t c = 0; c < num_in; ++c) {
        if (in_avail[c]) {
            const Token &token = inChans_[c]->head();
            FIREAXE_ASSERT(token.size() == inPortIdx_[c].size());
            for (size_t i = 0; i < token.size(); ++i)
                sim_->pokeIdx(inPortIdx_[c][i], token[i]);
        }
    }

    if (driver_)
        driver_(*sim_, cycle_);
    sim_->evalComb();

    bool progress = false;

    // Output-channel FSMs: fire once all dependencies are visible.
    for (size_t c = 0; c < outChans_.size(); ++c) {
        if (fired_[c] || outChans_[c]->full())
            continue;
        bool deps_ok = true;
        for (int dep : outDeps_[c]) {
            if (!in_avail[dep]) {
                deps_ok = false;
                break;
            }
        }
        if (!deps_ok)
            continue;
        outToken_.clear();
        for (int sig : outPortIdx_[c])
            outToken_.push_back(sim_->peekIdx(sig));
        // Backpressure (channel or retransmit-buffer full) is
        // recoverable: leave the FSM unfired and retry on a later
        // host cycle.
        if (!outChans_[c]->tryEnqTimed(outToken_, now))
            continue;
        fired_[c] = 1;
        ++fires_;
        progress = true;
    }

    // fireFSM: advance a target cycle when every input channel has a
    // token and every output channel has fired.
    bool all_in = std::all_of(in_avail, in_avail + num_in,
                              [](uint8_t b) { return b != 0; });
    bool all_fired = std::all_of(fired_.begin(), fired_.end(),
                                 [](uint8_t b) { return b != 0; });
    bool advanced = all_in && all_fired;
    if (advanced) {
        if (monitor_)
            monitor_(*sim_, cycle_);
        for (auto &ch : inChans_)
            ch->retire(now, cycle_);
        sim_->step();
        ++cycle_;
        ++advances_;
        std::fill(fired_.begin(), fired_.end(), 0);
        progress = true;
    }
    if (!progress)
        return {false, false, false, cycle_};
    situationValid_ = false;
    return {true, advanced, settled(now, advanced), cycle_};
}

bool
LIBDNModel::settled(double now, bool advanced) const
{
    // The input heads the next tick sees if nothing changes: those
    // this tick saw and kept. An advance retired every one of them.
    const uint8_t *in_avail = lastSituation_.data();
    auto kept = [&](int c) { return !advanced && in_avail[c]; };
    size_t num_in = inChans_.size();
    // A head due by now that this tick did not keep is unpolled: the
    // next tick polls it (and runs its NAK or duplicate discard).
    for (size_t c = 0; c < num_in; ++c)
        if (!kept(int(c)) && inChans_[c]->headReadyTime() <= now)
            return false;
    // An unfired output whose dependencies stay visible may fire; one
    // behind a full channel counts too, since a pop may free it.
    for (size_t c = 0; c < outChans_.size(); ++c)
        if (!fired_[c] &&
            std::all_of(outDeps_[c].begin(), outDeps_[c].end(), kept))
            return false;
    // The fireFSM advances once every input is kept and every output
    // has fired.
    for (size_t c = 0; c < num_in; ++c)
        if (!kept(int(c)))
            return true;
    return !std::all_of(fired_.begin(), fired_.end(),
                        [](uint8_t b) { return b != 0; });
}

double
LIBDNModel::wakeTimeNs(double now) const
{
    double wake = std::numeric_limits<double>::infinity();
    for (const auto &ch : inChans_) {
        double ready = ch->headReadyTime();
        if (ready > now)
            wake = std::min(wake, ready);
    }
    return wake;
}

const std::vector<int> &
LIBDNModel::outputChannelDeps(int slot) const
{
    FIREAXE_ASSERT(finalized_ && slot >= 0 &&
                   size_t(slot) < outDeps_.size());
    return outDeps_[slot];
}

void
LIBDNModel::saveFsm(std::ostream &os) const
{
    // `1 0` and the two `0` lines are the retired slots (see model.hh).
    os << "fireaxe-fsm 1\n";
    os << "1 0 " << fires_ << " " << advances_ << "\n";
    os << cycle_ << " " << fired_.size();
    for (uint8_t f : fired_)
        os << " " << int(f);
    os << "\n0\n0\n";
}

bool
LIBDNModel::tryLoadFsm(std::istream &is, std::string &error)
{
    auto fail = [&](std::string msg) {
        error = "partition '" + name_ + "': " + std::move(msg);
        return false;
    };
    std::string magic;
    unsigned version = 0;
    is >> magic >> version;
    if (magic != "fireaxe-fsm" || version != 1)
        return fail("not an FSM checkpoint stream");
    unsigned threads = 0, cur = 0;
    uint64_t fires = 0, advances = 0;
    is >> threads >> cur >> fires >> advances;
    if (!is)
        return fail("truncated FSM checkpoint header");
    if (threads != 1 || cur != 0)
        return fail("FSM checkpoint header reads threads " +
                    std::to_string(threads) + " cursor " +
                    std::to_string(cur) + ", expected 1 0");

    // Every length must match this partition's own state shape before
    // it sizes a buffer.
    uint64_t cycle = 0;
    size_t nfired = 0;
    is >> cycle >> nfired;
    if (!is || nfired != outSpecs_.size())
        return fail("FSM checkpoint channel shape mismatch");
    std::vector<uint8_t> fired(nfired);
    for (auto &f : fired) {
        unsigned v = 0;
        is >> v;
        f = v != 0;
    }
    size_t nregs = 0, nmems = 0;
    is >> nregs;
    if (!is || nregs != 0)
        return fail("FSM checkpoint register shape mismatch");
    is >> nmems;
    if (!is || nmems != 0)
        return fail("FSM checkpoint memory shape mismatch");

    fires_ = fires;
    advances_ = advances;
    cycle_ = cycle;
    fired_ = std::move(fired);
    situationValid_ = false;
    error.clear();
    return true;
}

LIBDNModel::FsmState
LIBDNModel::fsmState(double now) const
{
    FIREAXE_ASSERT(finalized_, "finalize() before fsmState()");
    FsmState state;
    state.cycle = cycle_;
    for (size_t c = 0; c < inChans_.size(); ++c)
        if (!inChans_[c]->headReady(now))
            state.waitingInputs.push_back(inSpecs_[c].name);
    for (size_t c = 0; c < outChans_.size(); ++c)
        if (!fired_[c])
            state.unfiredOutputs.push_back(outSpecs_[c].name);
    return state;
}

} // namespace fireaxe::libdn
