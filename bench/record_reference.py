"""Record `reference.json`: the exit code and stdout digest of every fixed CLI
job, and the seed-independent fields of the seeded prop4 job.

Run it only at a commit whose outputs are known to be right:

    PYTHONPATH=src python3 bench/record_reference.py
"""

import json

import workloads
from worker import run_cli

if __name__ == "__main__":
    jobs = [job for name in workloads.BATCH_JOBS for job in workloads.cli_jobs(name, 1)]
    results, _, _, _ = run_cli(jobs)
    reference = {
        workloads.reference_key(job): workloads.reference_entry(job, rc, out)
        for job, rc, out, _err in results
    }
    with open(workloads.REFERENCE_PATH, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
