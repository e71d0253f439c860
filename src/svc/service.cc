#include "svc/service.hh"

#include <ostream>
#include <streambuf>
#include <utility>

#include "platform/executor.hh"
#include "svc/jobrunner.hh"
#include "svc/protocol.hh"

namespace fireaxe::svc {

namespace {

/**
 * std::ostream adapter that forwards every complete line to a
 * callback (the JSONL telemetry → protocol seam). StreamWriter emits
 * exactly one JSON object per '\n', so buffering to newlines
 * reconstructs whole telemetry lines regardless of how the stream
 * chunks its writes.
 */
class LineForwardBuf : public std::streambuf
{
  public:
    using LineFn = std::function<void(const std::string &)>;

    explicit LineForwardBuf(LineFn fn) : fn_(std::move(fn)) {}

  protected:
    int
    overflow(int ch) override
    {
        if (ch == traits_type::eof())
            return 0;
        if (ch == '\n') {
            if (!buf_.empty())
                fn_(buf_);
            buf_.clear();
        } else {
            buf_.push_back(char(ch));
        }
        return ch;
    }

    std::streamsize
    xsputn(const char *s, std::streamsize n) override
    {
        for (std::streamsize i = 0; i < n; ++i)
            overflow(traits_type::to_int_type(s[i]));
        return n;
    }

  private:
    LineFn fn_;
    std::string buf_;
};

} // namespace

SimService::SimService(const ServiceConfig &cfg)
    : cfg_(cfg), cache_(cfg.cache)
{
    unsigned n = cfg_.workers ? cfg_.workers : 1;
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

SimService::~SimService()
{
    drain();
}

uint64_t
SimService::submit(const JobSpec &spec, EventSink sink)
{
    uint64_t id;
    bool rejected;
    {
        std::lock_guard<std::mutex> lock(mtx_);
        id = nextId_++;
        rejected = draining_;
        if (rejected) {
            done_.insert(id);
            ++completed_;
        }
    }
    if (rejected) {
        if (sink)
            sink(errorLine(id, "draining",
                           "service is draining; job rejected"));
        doneCv_.notify_all();
        return id;
    }
    // "queued" goes out before the job becomes visible to workers,
    // so the sink's status edges are always in lifecycle order.
    if (sink)
        sink(statusLine(id, "queued"));
    {
        std::lock_guard<std::mutex> lock(mtx_);
        if (draining_) {
            done_.insert(id);
            ++completed_;
            rejected = true;
        } else {
            queue_.push_back(Job{id, spec, sink});
        }
    }
    if (rejected) {
        if (sink)
            sink(errorLine(id, "draining",
                           "service is draining; job rejected"));
        doneCv_.notify_all();
        return id;
    }
    workCv_.notify_one();
    return id;
}

void
SimService::waitAll()
{
    // Count terminal jobs rather than look at the queue and the
    // active set: a job a worker has popped but is still preparing
    // sits in neither.
    std::unique_lock<std::mutex> lock(mtx_);
    doneCv_.wait(lock, [this] { return completed_ == nextId_ - 1; });
}

bool
SimService::waitJob(uint64_t id)
{
    std::unique_lock<std::mutex> lock(mtx_);
    if (id == 0 || id >= nextId_)
        return false;
    doneCv_.wait(lock, [&] { return done_.count(id) > 0; });
    return true;
}

void
SimService::drain()
{
    std::deque<Job> rejected;
    {
        std::unique_lock<std::mutex> lock(mtx_);
        draining_ = true;
        rejected.swap(queue_);
        // In-flight jobs quiesce at their next run()-boundary; the
        // runner then commits a resumable snapshot for jobs that
        // have a snapshot directory.
        for (auto &[id, sim] : active_)
            sim->requestStop();
        for (const Job &job : rejected) {
            done_.insert(job.id);
            ++completed_;
        }
    }
    for (const Job &job : rejected)
        if (job.sink)
            job.sink(errorLine(job.id, "draining",
                               "service is draining; job rejected"));
    doneCv_.notify_all();
    workCv_.notify_all();
    for (auto &t : workers_)
        if (t.joinable())
            t.join();
}

bool
SimService::draining() const
{
    std::lock_guard<std::mutex> lock(mtx_);
    return draining_;
}

uint64_t
SimService::jobsSubmitted() const
{
    std::lock_guard<std::mutex> lock(mtx_);
    return nextId_ - 1;
}

uint64_t
SimService::jobsActive() const
{
    std::lock_guard<std::mutex> lock(mtx_);
    return active_.size();
}

uint64_t
SimService::jobsCompleted() const
{
    std::lock_guard<std::mutex> lock(mtx_);
    return completed_;
}

void
SimService::workerLoop()
{
    for (;;) {
        Job job;
        {
            std::unique_lock<std::mutex> lock(mtx_);
            workCv_.wait(lock, [this] {
                return !queue_.empty() || draining_;
            });
            if (queue_.empty())
                return; // draining and nothing left
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        runOne(std::move(job));
    }
}

void
SimService::runOne(Job job)
{
    JobRunner runner(job.spec, &cache_);
    if (!runner.prepare()) {
        const RunOutcome &o = runner.outcome();
        if (job.sink) {
            const char *code =
                !o.verifyReport.empty() ? "verify"
                : o.exitCode == 2       ? "bad_request"
                                        : "failed";
            job.sink(
                errorLine(job.id, code, o.error, o.verifyReport));
        }
        finishJob(job.id);
        return;
    }

    {
        std::unique_lock<std::mutex> lock(mtx_);
        active_[job.id] = runner.sim();
        // A drain that raced this job's registration still stops it:
        // requestStop is sticky, and run() checks it up front.
        if (draining_)
            runner.sim()->requestStop();
    }
    if (job.sink)
        job.sink(statusLine(job.id, "running"));

    // Telemetry → protocol forwarding, when the job asked to stream.
    std::unique_ptr<LineForwardBuf> buf;
    std::unique_ptr<std::ostream> sink_os;
    if (job.spec.stream && job.sink) {
        buf = std::make_unique<LineForwardBuf>(
            [&job](const std::string &line) {
                job.sink(streamLine(job.id, line));
            });
        sink_os = std::make_unique<std::ostream>(buf.get());
    }

    const RunOutcome &o = runner.execute(sink_os.get());

    {
        // Erase before the runner (and its sim) dies so drain never
        // touches a dead pointer.
        std::lock_guard<std::mutex> lock(mtx_);
        active_.erase(job.id);
    }

    if (job.sink) {
        if (o.ok || o.result.deadlocked || o.result.stopped)
            job.sink(resultLine(job.id, job.spec.target, o));
        else
            job.sink(errorLine(job.id, "failed", o.error,
                               o.verifyReport));
    }
    finishJob(job.id);
}

void
SimService::finishJob(uint64_t id)
{
    {
        std::lock_guard<std::mutex> lock(mtx_);
        done_.insert(id);
        ++completed_;
    }
    doneCv_.notify_all();
}

} // namespace fireaxe::svc
