"""Table 1: the benchmark tasks, their operator counts and datasets."""

from harness import Cell, print_series
from tasks import TABLE1, build_crocopr, build_sgd, build_wordcount


def test_table1_task_inventory():
    def scenario():
        plans = {
            "WordCount": build_wordcount(1).to_plan(),
            "SGD": build_sgd(percent=1, iterations=2).to_plan(),
            "CrocoPR": build_crocopr(percent=1, iterations=2).to_plan(),
        }
        rows = {}
        for task, plan in plans.items():
            measured = plan.operator_count()
            rows[task] = {
                "paper ops": Cell(TABLE1[task]["paper_operators"]),
                "our ops": Cell(measured),
            }
            assert measured >= 4
        print_series("Table 1: tasks and datasets", "task", rows)
        for task, meta in TABLE1.items():
            print(f"  {task}: {meta['dataset']}")
        return rows

    rows = scenario()
    assert set(rows) == {"WordCount", "SGD", "CrocoPR"}
