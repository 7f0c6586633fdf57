def pytest_addoption(parser):
    parser.addoption(
        "--run-slow",
        action="store_true",
        default=False,
        help="also run the slow checks (the n=5 intertwiner oracle, about 3 s and 250 MB)",
    )
