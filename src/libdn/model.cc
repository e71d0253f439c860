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
    unsigned num_threads, rtlsim::EvalEngine engine,
    std::shared_ptr<const rtlsim::CompiledProgram> precompiled)
    : name_(std::move(name)), numThreads_(num_threads)
{
    FIREAXE_ASSERT(num_threads >= 1);
    firrtl::Circuit flat = passes::flattenAll(circuit);
    sim_ = std::make_unique<rtlsim::Simulator>(
        flat, engine, std::move(precompiled));
    threads_.resize(numThreads_);
    if (numThreads_ > 1) {
        for (auto &th : threads_)
            sim_->saveState(th.seq);
    }
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
    for (auto &th : threads_)
        th.inChans.resize(inSpecs_.size());
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
    for (auto &th : threads_) {
        th.outChans.resize(outSpecs_.size());
        th.fired.resize(outSpecs_.size(), false);
    }
    return int(outSpecs_.size()) - 1;
}

void
LIBDNModel::bindInput(int slot, unsigned thread, ChannelPtr channel)
{
    FIREAXE_ASSERT(slot >= 0 && size_t(slot) < inSpecs_.size());
    FIREAXE_ASSERT(thread < numThreads_);
    channel->setTokenWords(inPortIdx_[slot].size());
    threads_[thread].inChans[slot] = std::move(channel);
}

void
LIBDNModel::bindOutput(int slot, unsigned thread, ChannelPtr channel)
{
    FIREAXE_ASSERT(slot >= 0 && size_t(slot) < outSpecs_.size());
    FIREAXE_ASSERT(thread < numThreads_);
    channel->setTokenWords(outPortIdx_[slot].size());
    threads_[thread].outChans[slot] = std::move(channel);
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

    for (unsigned t = 0; t < numThreads_; ++t) {
        ThreadState &th = threads_[t];
        th.situation.assign(inSpecs_.size() + outSpecs_.size(), 0);
        th.lastSituation.assign(th.situation.size(), 0);
        for (size_t c = 0; c < inSpecs_.size(); ++c) {
            if (!th.inChans[c]) {
                fatal("partition '", name_, "': input channel '",
                      inSpecs_[c].name, "' unbound for thread ", t);
            }
        }
        for (size_t c = 0; c < outSpecs_.size(); ++c) {
            if (!th.outChans[c]) {
                fatal("partition '", name_, "': output channel '",
                      outSpecs_[c].name, "' unbound for thread ", t);
            }
        }
    }
    finalized_ = true;
}

void
LIBDNModel::seedOutputs(double now)
{
    FIREAXE_ASSERT(finalized_, "finalize() before seedOutputs()");
    for (unsigned t = 0; t < numThreads_; ++t) {
        ThreadState &th = threads_[t];
        if (numThreads_ > 1)
            sim_->loadState(th.seq);
        sim_->evalComb();
        for (size_t c = 0; c < outSpecs_.size(); ++c) {
            th.outToken.clear();
            for (int sig : outPortIdx_[c])
                th.outToken.push_back(sim_->peekIdx(sig));
            th.outChans[c]->enq(th.outToken, now);
        }
    }
}

bool
LIBDNModel::threadTick(ThreadState &th, double now)
{
    // Cheap no-change check: if the channel situation is identical to
    // the last tick of this thread within the same target cycle, the
    // FSMs cannot make new progress, so skip the evaluation.
    size_t num_in = th.inChans.size();
    for (size_t c = 0; c < num_in; ++c)
        th.situation[c] = th.inChans[c]->headReady(now);
    for (size_t c = 0; c < th.outChans.size(); ++c)
        th.situation[num_in + c] = !th.fired[c] &&
                                   !th.outChans[c]->full();
    if (th.situationValid && th.situation == th.lastSituation)
        return false;
    th.situation.swap(th.lastSituation);
    th.situationValid = true;
    // The input bits double as the visible-token mask below.
    const uint8_t *in_avail = th.lastSituation.data();

    if (numThreads_ > 1)
        sim_->loadState(th.seq);

    // Poke values of every visible input token.
    for (size_t c = 0; c < num_in; ++c) {
        if (in_avail[c]) {
            const Token &token = th.inChans[c]->head();
            FIREAXE_ASSERT(token.size() == inPortIdx_[c].size());
            for (size_t i = 0; i < token.size(); ++i)
                sim_->pokeIdx(inPortIdx_[c][i], token[i]);
        }
    }

    unsigned thread_id = unsigned(&th - threads_.data());
    if (driver_)
        driver_(*sim_, thread_id, th.cycle);
    sim_->evalComb();

    bool progress = false;

    // Output-channel FSMs: fire once all dependencies are visible.
    for (size_t c = 0; c < th.outChans.size(); ++c) {
        if (th.fired[c] || th.outChans[c]->full())
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
        th.outToken.clear();
        for (int sig : outPortIdx_[c])
            th.outToken.push_back(sim_->peekIdx(sig));
        // Backpressure (channel or retransmit-buffer full) is
        // recoverable: leave the FSM unfired and retry on a later
        // host cycle.
        if (!th.outChans[c]->tryEnqTimed(th.outToken, now))
            continue;
        th.fired[c] = true;
        ++fires_;
        progress = true;
    }

    // fireFSM: advance a target cycle when every input channel has a
    // token and every output channel has fired.
    bool all_in = std::all_of(in_avail, in_avail + num_in,
                              [](uint8_t b) { return b != 0; });
    bool all_fired = std::all_of(th.fired.begin(), th.fired.end(),
                                 [](bool b) { return b; });
    if (all_in && all_fired) {
        if (monitor_)
            monitor_(*sim_, thread_id, th.cycle);
        for (auto &ch : th.inChans)
            ch->retire(now, th.cycle);
        sim_->step();
        ++th.cycle;
        ++advances_;
        std::fill(th.fired.begin(), th.fired.end(), false);
        th.situationValid = false;
        progress = true;
        if (numThreads_ > 1)
            sim_->saveState(th.seq);
        curThread_ = (curThread_ + 1) % numThreads_;
    } else if (progress && numThreads_ > 1) {
        sim_->saveState(th.seq);
    }
    if (progress)
        th.situationValid = false;
    return progress;
}

bool
LIBDNModel::tick(double now)
{
    FIREAXE_ASSERT(finalized_, "finalize() before tick()");
    ++ticks_;
    return threadTick(threads_[curThread_], now);
}

double
LIBDNModel::wakeTimeNs(double now) const
{
    const ThreadState &th = threads_[curThread_];
    double wake = std::numeric_limits<double>::infinity();
    for (const auto &ch : th.inChans) {
        double ready = ch->headReadyTime();
        if (ready > now)
            wake = std::min(wake, ready);
    }
    return wake;
}

uint64_t
LIBDNModel::targetCycle(unsigned thread) const
{
    FIREAXE_ASSERT(thread < numThreads_);
    return threads_[thread].cycle;
}

uint64_t
LIBDNModel::minTargetCycle() const
{
    uint64_t m = threads_[0].cycle;
    for (const auto &th : threads_)
        m = std::min(m, th.cycle);
    return m;
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
    os << "fireaxe-fsm 1\n";
    os << numThreads_ << " " << curThread_ << " " << fires_ << " "
       << advances_ << "\n";
    for (const ThreadState &th : threads_) {
        os << th.cycle << " " << th.fired.size();
        for (bool f : th.fired)
            os << " " << (f ? 1 : 0);
        os << "\n";
        os << th.seq.regValues.size();
        for (uint64_t v : th.seq.regValues)
            os << " " << v;
        os << "\n";
        os << th.seq.memContents.size() << "\n";
        for (const auto &mem : th.seq.memContents) {
            os << mem.size();
            for (uint64_t v : mem)
                os << " " << v;
            os << "\n";
        }
    }
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
    if (threads != numThreads_ || cur >= threads)
        return fail("FSM checkpoint is for " +
                    std::to_string(threads) + " threads, model has " +
                    std::to_string(numThreads_));

    struct ThreadCkpt
    {
        uint64_t cycle = 0;
        std::vector<bool> fired;
        rtlsim::SeqState seq;
    };
    // Every length must match this partition's own state shape before
    // it sizes a buffer.
    std::vector<ThreadCkpt> loaded(threads);
    for (unsigned t = 0; t < threads; ++t) {
        ThreadCkpt &tc = loaded[t];
        const rtlsim::SeqState &own = threads_[t].seq;
        size_t nfired = 0;
        is >> tc.cycle >> nfired;
        if (!is || nfired != outSpecs_.size())
            return fail("FSM checkpoint channel shape mismatch");
        tc.fired.resize(nfired);
        for (size_t c = 0; c < nfired; ++c) {
            unsigned f = 0;
            is >> f;
            tc.fired[c] = f != 0;
        }
        size_t nregs = 0;
        is >> nregs;
        if (!is || nregs != own.regValues.size())
            return fail("FSM checkpoint register shape mismatch");
        tc.seq.regValues.resize(nregs);
        for (auto &v : tc.seq.regValues)
            is >> v;
        size_t nmems = 0;
        is >> nmems;
        if (!is || nmems != own.memContents.size())
            return fail("FSM checkpoint memory shape mismatch");
        tc.seq.memContents.resize(nmems);
        for (size_t m = 0; m < nmems; ++m) {
            size_t depth = 0;
            is >> depth;
            if (!is || depth != own.memContents[m].size())
                return fail("FSM checkpoint memory shape mismatch");
            tc.seq.memContents[m].resize(depth);
            for (auto &v : tc.seq.memContents[m])
                is >> v;
        }
        if (!is)
            return fail("truncated FSM checkpoint thread state");
    }

    curThread_ = cur;
    fires_ = fires;
    advances_ = advances;
    for (unsigned t = 0; t < threads; ++t) {
        ThreadState &th = threads_[t];
        th.cycle = loaded[t].cycle;
        th.fired = std::move(loaded[t].fired);
        th.seq = std::move(loaded[t].seq);
        th.situationValid = false;
    }
    error.clear();
    return true;
}

LIBDNModel::FsmState
LIBDNModel::fsmState(double now, unsigned thread) const
{
    FIREAXE_ASSERT(finalized_, "finalize() before fsmState()");
    const ThreadState &th = threads_.at(thread);
    FsmState state;
    state.cycle = th.cycle;
    for (size_t c = 0; c < th.inChans.size(); ++c)
        if (!th.inChans[c]->headReady(now))
            state.waitingInputs.push_back(inSpecs_[c].name);
    for (size_t c = 0; c < th.outChans.size(); ++c)
        if (!th.fired[c])
            state.unfiredOutputs.push_back(outSpecs_[c].name);
    return state;
}

} // namespace fireaxe::libdn
